package main

import (
	"fmt"
	"sort"
	"strings"

	"activego/internal/baseline"
	"activego/internal/codegen"
	"activego/internal/driver"
	"activego/internal/exec"
	"activego/internal/fault"
	"activego/internal/metrics"
	"activego/internal/nvme"
	"activego/internal/obs"
	"activego/internal/platform"
	"activego/internal/resilience"
	"activego/internal/workloads"
)

// Serving parameters. The rate is a constant, not calibrated per run, so
// a change to the program cannot move the offered load. It is about a
// fifth of four unshared slots at the mix's mean solo service time; the
// slots share one CSE, so queues form, but the clean workload never
// sheds.
const (
	serveQPS         = 600.0 // total offered requests per simulated second
	serveRequests    = 7200  // requests offered per op, over all tenants
	smokeRequests    = 720
	minTenantSamples = 1000 // completions per tenant a p99 needs, so ≥ 10 lie beyond it
	serveMaxInFlight = 4
	serveMaxQueue    = 8
)

// Degradation of the serve-faulty workload.
const (
	faultRate  = 0.01 // NVMe completion drops and flash transient errors
	sagAvail   = 0.1  // CSE availability inside a sag
	sagPeriods = 12   // sags per arrival horizon
	sagDuty    = 0.25 // share of each period spent sagged
	obsWindows = 32   // per-line observation windows per arrival horizon
)

// tenantSpec is one Poisson tenant's weighted scenario mix.
type tenantSpec struct {
	name    string
	weights []driver.Weighted
}

// serveTenants are three Poisson tenants with distinct mixes of Table I
// scenarios, splitting the total rate evenly.
var serveTenants = []tenantSpec{
	{"interactive", []driver.Weighted{{Name: "tpch-6", Weight: 4}, {Name: "blackscholes", Weight: 1}}},
	{"batch", []driver.Weighted{{Name: "kmeans", Weight: 4}, {Name: "tpch-14", Weight: 1}}},
	{"pricing", []driver.Weighted{{Name: "blackscholes", Weight: 4}, {Name: "tpch-6", Weight: 1}}},
}

// serving is the open-loop workload in simulated time: one op is one
// driver.Run on a fresh platform. Arrivals are calendar events, so the
// generator is never late and latency runs from the scheduled arrival.
type serving struct {
	faulty  bool
	smoke   bool
	seed    uint64
	horizon float64
	tenants []driver.TenantConfig
	names   []string // distinct scenario names, sorted
	scen    map[string]*driver.Scenario
	// Simulated solo figures of the served scenarios, from setup.
	speedup, speedupContended float64
	meanService               float64
	retry                     nvme.RetryPolicy
	policy                    resilience.Policy
	// corrupt, when set, unbalances one tenant's account before the
	// check, so the benchmark's own tests can see the check fail.
	corrupt bool
}

func newServing(params workloads.Params, faulty, smoke, corrupt bool) (*serving, error) {
	s := &serving{faulty: faulty, smoke: smoke, seed: uint64(params.Seed), scen: map[string]*driver.Scenario{}, corrupt: corrupt}
	requests := serveRequests
	if smoke {
		requests = smokeRequests
	}
	s.horizon = float64(requests) / serveQPS
	// Every scenario build runs the whole cold pipeline and its reference
	// check; no plan cache carries work from one setup into the next.
	driver.SetPlanCache(nil)
	for _, t := range serveTenants {
		for _, w := range t.weights {
			if s.scen[w.Name] != nil {
				continue
			}
			sc, err := driver.Build(w.Name, params)
			if err != nil {
				return nil, err
			}
			s.scen[w.Name] = sc
			s.names = append(s.names, w.Name)
		}
	}
	sort.Strings(s.names)
	solo := map[string]float64{}
	var speedup, contended []float64
	worst := 0.0
	for _, name := range s.names {
		sc := s.scen[name]
		warm, cont, base, err := soloRuns(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: solo runs: %w", name, err)
		}
		solo[name] = warm
		speedup = append(speedup, base/warm)
		for _, c := range cont {
			contended = append(contended, base/c)
		}
		for _, est := range sc.Estimates {
			if est.Execs > 0 && est.DevTotal()/est.Execs > worst {
				worst = est.DevTotal() / est.Execs
			}
		}
	}
	s.speedup, s.speedupContended = geomean(speedup), geomean(contended)
	for _, t := range serveTenants {
		var acc, wsum float64
		entries := make([]driver.MixEntry, 0, len(t.weights))
		for _, w := range t.weights {
			acc += w.Weight * solo[w.Name]
			wsum += w.Weight
			entries = append(entries, driver.MixEntry{Scenario: s.scen[w.Name], Weight: w.Weight})
		}
		s.meanService += acc / wsum / float64(len(serveTenants))
		mix, err := driver.NewMix(entries...)
		if err != nil {
			return nil, err
		}
		s.tenants = append(s.tenants, driver.TenantConfig{
			Name: t.name, Mix: mix,
			Arrival: driver.Arrival{Process: driver.Poisson, QPS: serveQPS / float64(len(serveTenants))},
		})
	}
	// The degradation ladder is sized from the scenarios' own service
	// times, as the resilience study sizes it: completion timers at 2.5×
	// the costliest offloaded line, deadlines just above them, and a
	// breaker that cools down for one mean request.
	floor := 10e-3 * params.OverheadScale()
	s.retry = nvme.RetryPolicy{Timeout: 2.5*worst + floor, MaxAttempts: 2, Backoff: worst / 4}
	s.policy = resilience.Policy{
		LineDeadline: 1.2 * s.retry.Timeout,
		LineRetries:  1,
		Backoff: resilience.Backoff{
			Base: s.retry.Timeout / 8, Factor: 2, Cap: s.retry.Timeout / 2,
			Jitter: 0.25, Seed: fault.Mix64(s.seed ^ 0xbac0ff),
		},
		Breaker: resilience.BreakerPolicy{Threshold: 3, Cooldown: s.meanService},
	}
	return s, nil
}

// coTenantArrivals are the points of a request's offloaded progress at
// which the serving workloads' Fig. 5 co-tenant arrives. A request meets
// co-tenants at any point of its run, and one fixed point makes the
// figure jump with the line a migration decision happens to land on.
var coTenantArrivals = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// soloRuns replays one scenario alone on fresh platforms: warm as the
// driver dispatches it, the same under the Fig. 5 co-tenant with the
// §III-D monitor on (once per arrival point), and the host-only C
// baseline. It returns the simulated durations.
func soloRuns(sc *driver.Scenario) (warm float64, contended []float64, base float64, err error) {
	opts := exec.Options{
		Backend: sc.Backend, Partition: sc.Partition, Estimates: sc.Estimates,
		OverheadScale: sc.OverheadScale, UseCallQueue: true, Warm: true,
	}
	w, err := exec.Run(platform.Default(), sc.Trace, opts)
	if err != nil {
		return 0, nil, 0, err
	}
	opts.Migration = exec.DefaultMigration()
	for _, frac := range coTenantArrivals {
		p := platform.Default()
		p.Dev.ScheduleStress(progressAt(w, frac), contendedAvail, 0)
		c, err := exec.Run(p, sc.Trace, opts)
		if err != nil {
			return 0, nil, 0, err
		}
		contended = append(contended, c.Duration)
	}
	b, err := baseline.RunHostOnly(platform.Default(), sc.Trace, codegen.C)
	if err != nil {
		return 0, nil, 0, err
	}
	return w.Duration, contended, b.Duration, nil
}

// arm installs serve-faulty's degradation on a fresh platform: periodic
// CSE sags and seeded NVMe completion drops and flash transient errors
// under NVMe completion timers.
func (s *serving) arm(p *platform.Platform) error {
	period := s.horizon / sagPeriods
	for k := 0; k < sagPeriods; k++ {
		p.Dev.ScheduleStress(float64(k)*period+period/2, sagAvail, sagDuty*period)
	}
	plan, err := fault.NewPlanChecked(fault.Mix64(s.seed^0xfa017),
		fault.Rule{Point: fault.NVMeCompletionDrop, Rate: faultRate},
		fault.Rule{Point: fault.FlashTransient, Rate: faultRate})
	if err != nil {
		return err
	}
	p.InstallFaults(plan, s.retry)
	return nil
}

func (s *serving) op(tr *tracer) (*outcome, error) {
	c := newCounts()
	reg := metrics.New()
	cfg := driver.Config{
		Seed:        s.seed,
		Duration:    s.horizon,
		Tenants:     s.tenants,
		MaxInFlight: serveMaxInFlight,
		MaxQueue:    serveMaxQueue,
		Metrics:     reg,
		// One latency window spans the whole run, so the per-tenant
		// quantiles are exact nearest-rank over every completion rather
		// than the registry's log2-bucket bounds.
		ObsWindow: 1e6 * s.horizon,
	}
	sp := tr.begin("platform")
	p := platform.Default()
	var col *obs.Collector
	if s.faulty {
		if err := s.arm(p); err != nil {
			tr.end(sp)
			return nil, err
		}
		cfg.Resilience = &s.policy
		col = obs.NewCollector(s.horizon/obsWindows, 0)
		cfg.Obs = col
	}
	tr.end(sp)
	c.add("platform.calls", 1)

	sp = tr.begin("driver")
	res, err := driver.Run(p, cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	if col != nil {
		sp = tr.begin("obs")
		stale := 0
		for _, name := range s.names {
			rep := obs.ScoreDrift(col, obs.PlannedFromProvenance(s.scen[name].Provenance), obs.DefaultDriftConfig())
			stale += len(rep.StaleLines())
		}
		col.Windows().Fold(reg)
		tr.end(sp)
		c.add("obs.windows", float64(col.Windows().Count()))
		c.add("obs.stale_lines", float64(stale))
	}

	var p50, p99 float64
	var digest strings.Builder
	windowed := make([]int, len(res.Tenants)) // latencies in the run-spanning window
	for i, t := range res.Tenants {
		base := fmt.Sprintf("%s%04d.t%d.latency.seconds.", metrics.ObsWindowPrefix, 0, i)
		tp50, tp99 := reg.Gauge(base+"p50").Value(), reg.Gauge(base+"p99").Value()
		windowed[i] = int(reg.Gauge(base + "count").Value())
		p50, p99 = max(p50, tp50), max(p99, tp99)
		fmt.Fprintf(&digest, "%s %d/%d/%d/%d/%d %v %v;", t.Name, t.Offered, t.Admitted, t.Completed,
			t.Failed, t.Shed, tp50, tp99)
	}
	fmt.Fprintf(&digest, "makespan %v", res.Makespan)

	c.add("driver.offered", float64(res.Offered))
	c.add("driver.completed", float64(res.Completed))
	c.add("driver.shed", float64(res.Shed))
	c.add("driver.failed", float64(res.Failed))
	c.add("driver.queued", reg.Counter(metrics.MetricDriverQueued).Value())
	c.set("driver.wait_mean_s", histMean(reg.Histogram(metrics.MetricDriverWait)))
	c.set("driver.service_mean_s", histMean(reg.Histogram(metrics.MetricDriverService)))
	for name, m := range map[string]string{
		"exec.retries": metrics.MetricExecRetries, "exec.timeouts": metrics.MetricExecTimeouts,
		"exec.failed_calls": metrics.MetricExecFailedCalls, "exec.breaker_opens": metrics.MetricExecBreakerOpens,
		"exec.degraded_lines": metrics.MetricExecDegradedLines, "exec.deadline_misses": metrics.MetricExecDeadlineMisses,
		"exec.migrations": metrics.MetricExecMigrations,
	} {
		c.add(name, reg.Counter(m).Value())
	}
	c.add("exec.d2h_mb", reg.Counter(metrics.MetricExecD2HBytes).Value()/1e6)
	c.add("sim.events", float64(p.Sim.EventsFired()))
	c.set("machine.cse_util", p.Dev.CSE.Utilization())
	c.set("machine.d2h_util", p.Topo.D2H.Utilization())
	sub, _ := p.Dev.QP.Stats()
	c.add("machine.nvme_submitted", float64(sub))
	reads, _, _, _, _ := p.Dev.Array.Stats()
	c.add("machine.flash_reads", float64(reads))
	c.fingerprint(p.Fingerprint())

	out := &outcome{
		units: res.Offered,
		sim: map[string]float64{
			"sim_speedup":           s.speedup,
			"sim_speedup_contended": s.speedupContended,
			"sim_p50_s":             p50,
			"sim_p99_s":             p99,
		},
		counts: c,
		digest: digest.String(),
	}
	note := fmt.Sprintf("worst tenant, exact nearest rank over >= %d completions", minCompleted(res))
	out.notes = map[string]string{"sim_p50_s": note, "sim_p99_s": note}
	out.check = func() (int, error) {
		if s.corrupt {
			res.Tenants[0].Completed--
		}
		if err := checkAccounts(res, !s.smoke); err != nil {
			return 0, err
		}
		for i, t := range res.Tenants {
			if windowed[i] != t.Completed {
				return 0, fmt.Errorf("tenant %s: %d latencies in the run-spanning window, %d completions", t.Name, windowed[i], t.Completed)
			}
		}
		return res.Completed, nil
	}
	return out, nil
}

// checkAccounts requires every request to be accounted once per tenant
// and in the totals, and — on full-length runs — enough completions per
// tenant for an exact p99.
func checkAccounts(res *driver.Result, fullLength bool) error {
	var offered, completed, failed, shed int
	for _, t := range res.Tenants {
		if t.Offered != t.Completed+t.Failed+t.Shed {
			return fmt.Errorf("tenant %s: offered %d != completed %d + failed %d + shed %d",
				t.Name, t.Offered, t.Completed, t.Failed, t.Shed)
		}
		if t.Admitted != t.Completed+t.Failed {
			return fmt.Errorf("tenant %s: admitted %d != completed %d + failed %d",
				t.Name, t.Admitted, t.Completed, t.Failed)
		}
		if fullLength && t.Completed < minTenantSamples {
			return fmt.Errorf("tenant %s: %d completions, need %d for an exact p99", t.Name, t.Completed, minTenantSamples)
		}
		offered += t.Offered
		completed += t.Completed
		failed += t.Failed
		shed += t.Shed
	}
	if offered != res.Offered || completed != res.Completed || failed != res.Failed || shed != res.Shed {
		return fmt.Errorf("totals %d/%d/%d/%d disagree with the tenants' %d/%d/%d/%d",
			res.Offered, res.Completed, res.Failed, res.Shed, offered, completed, failed, shed)
	}
	return nil
}

func minCompleted(res *driver.Result) int {
	n := -1
	for _, t := range res.Tenants {
		if n < 0 || t.Completed < n {
			n = t.Completed
		}
	}
	return n
}

func (s *serving) describe() string {
	kind := "serve"
	if s.faulty {
		kind = "serve-faulty"
	}
	return fmt.Sprintf("%s: open loop, %d Poisson tenants at %.0f requests/s in total, %.0f requests per op; "+
		"mean solo service %.4g ms, so the offered load is %.0f%% of %d unshared slots",
		kind, len(s.tenants), serveQPS, s.horizon*serveQPS, s.meanService*1e3,
		100*serveQPS*s.meanService/serveMaxInFlight, serveMaxInFlight)
}

func histMean(h *metrics.Histogram) float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}
