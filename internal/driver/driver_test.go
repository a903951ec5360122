package driver_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"activego/internal/chaos"
	"activego/internal/core"
	"activego/internal/driver"
	"activego/internal/fault"
	"activego/internal/metrics"
	"activego/internal/nvme"
	"activego/internal/obs"
	"activego/internal/platform"
	"activego/internal/resilience"
	"activego/internal/workloads"
)

// testMix is a two-scenario weighted mix over cheap synthetic programs.
func testMix(t testing.TB) *driver.Mix {
	t.Helper()
	m, err := driver.NewMix(
		driver.MixEntry{Scenario: driver.Synthetic("small", 4, 5e5, 1<<18), Weight: 3},
		driver.MixEntry{Scenario: driver.Synthetic("large", 8, 2e6, 1<<20), Weight: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestJain(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},
		{[]float64{0, 0}, 1},
		{[]float64{1, 1, 1}, 1},
		{[]float64{1, 0}, 0.5},
		{[]float64{1, 0, 0, 0}, 0.25},
	}
	for _, c := range cases {
		if got := driver.Jain(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jain(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMixPick(t *testing.T) {
	a := driver.Synthetic("a", 2, 1e5, 1<<10)
	b := driver.Synthetic("b", 2, 1e5, 1<<10)
	m, err := driver.NewMix(
		driver.MixEntry{Scenario: a, Weight: 1},
		driver.MixEntry{Scenario: b, Weight: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Pick(0); got != a {
		t.Fatalf("Pick(0) = %s, want a", got.Name)
	}
	if got := m.Pick(0.249); got != a {
		t.Fatalf("Pick(0.249) = %s, want a", got.Name)
	}
	if got := m.Pick(0.25); got != b {
		t.Fatalf("Pick(0.25) = %s, want b", got.Name)
	}
	if got := m.Pick(0.999); got != b {
		t.Fatalf("Pick(0.999) = %s, want b", got.Name)
	}
	if _, err := driver.NewMix(); err == nil {
		t.Fatal("empty mix accepted")
	}
	if _, err := driver.NewMix(driver.MixEntry{Scenario: a, Weight: -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// TestRegistryHasAllWorkloads: Build resolves names through
// workloads.ByName, so every workload is buildable by construction, and
// an unknown name is an error.
func TestRegistryHasAllWorkloads(t *testing.T) {
	if _, err := driver.Build("no-such-scenario", workloads.TestParams()); err == nil {
		t.Fatal("unknown scenario built")
	}
}

func TestBuildWorkloadScenario(t *testing.T) {
	sc, err := driver.Build(workloads.All()[0].Name, workloads.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if sc.Trace == nil || len(sc.Trace.Records) == 0 {
		t.Fatal("scenario has no trace")
	}
	if sc.OverheadScale != workloads.TestParams().OverheadScale() {
		t.Fatalf("OverheadScale %v, want %v", sc.OverheadScale, workloads.TestParams().OverheadScale())
	}
}

// TestScenarioViewsPreparedProgram: a scenario is a view of the
// prepared program — Build's and NewScenario's share the prepared trace
// and estimate map rather than copying them — and its warm replay
// options carry them straight through, with no allocation on the
// per-request path.
func TestScenarioViewsPreparedProgram(t *testing.T) {
	spec, _ := workloads.ByName("tpch-6")
	inst := spec.Build(workloads.TestParams())
	pr, err := core.ForWorkload(inst).Prepare(inst)
	if err != nil {
		t.Fatal(err)
	}
	sc := driver.NewScenario(spec.Name, pr, workloads.TestParams().OverheadScale())
	built, err := driver.Build(spec.Name, workloads.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, built) {
		t.Error("NewScenario over a prepared program differs from Build")
	}
	if sc.Trace != pr.Trace || reflect.ValueOf(sc.Estimates).Pointer() != reflect.ValueOf(pr.Estimates).Pointer() {
		t.Error("scenario copied the prepared trace or estimate map")
	}
	opts := sc.ReplayOptions()
	if !opts.Warm || !opts.Partition.Equal(pr.Plan.Partition) ||
		reflect.ValueOf(opts.Estimates).Pointer() != reflect.ValueOf(pr.Estimates).Pointer() {
		t.Errorf("replay options %+v do not replay the prepared plan warm", opts)
	}
	if n := testing.AllocsPerRun(100, func() { opts = sc.ReplayOptions() }); n != 0 {
		t.Errorf("ReplayOptions allocates %v times per call", n)
	}
}

func TestServingAccountingBalances(t *testing.T) {
	for _, proc := range []driver.Process{driver.Poisson, driver.Bursty, driver.Uniform, driver.Closed} {
		t.Run(string(proc), func(t *testing.T) {
			p := platform.Default()
			reg := metrics.New()
			arr := driver.Arrival{Process: proc, QPS: 40, BurstFactor: 4, Workers: 3, Think: 0.01}
			res, err := driver.Run(p, driver.Config{
				Seed:     42,
				Duration: 0.5,
				Tenants: []driver.TenantConfig{
					{Name: "alpha", Mix: testMix(t), Arrival: arr},
					{Name: "beta", Mix: testMix(t), Arrival: arr},
				},
				Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Offered == 0 {
				t.Fatal("no requests offered")
			}
			if got := res.Completed + res.Failed + res.Shed; got != res.Offered {
				t.Fatalf("accounting leak: completed %d + failed %d + shed %d != offered %d",
					res.Completed, res.Failed, res.Shed, res.Offered)
			}
			for _, tr := range res.Tenants {
				if tr.Completed+tr.Failed+tr.Shed != tr.Offered {
					t.Fatalf("tenant %s leaks: %+v", tr.Name, tr)
				}
				if tr.Completed > 0 && (tr.P50 <= 0 || tr.P99 < tr.P50 || tr.Max < tr.P99) {
					t.Fatalf("tenant %s quantiles not ordered: %+v", tr.Name, tr)
				}
			}
			if res.Fairness <= 0 || res.Fairness > 1 {
				t.Fatalf("fairness %v outside (0,1]", res.Fairness)
			}
			if err := p.Drained(); err != nil {
				t.Fatal(err)
			}
			// The merged registry carries both tenants' counters.
			if got := reg.Counter(metrics.MetricDriverOffered).Value(); got != float64(res.Offered) {
				t.Fatalf("merged offered counter %v, want %d", got, res.Offered)
			}
		})
	}
}

func TestServingDeterminism(t *testing.T) {
	run := func() (*driver.Result, string) {
		p := platform.Default()
		res, err := driver.Run(p, driver.Config{
			Seed:     7,
			Duration: 0.4,
			Tenants: []driver.TenantConfig{
				{Name: "a", Mix: testMix(t), Arrival: driver.Arrival{Process: driver.Poisson, QPS: 60}},
				{Name: "b", Mix: testMix(t), Arrival: driver.Arrival{Process: driver.Bursty, QPS: 60, BurstFactor: 5}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, p.Fingerprint()
	}
	r1, fp1 := run()
	r2, fp2 := run()
	if fp1 != fp2 {
		t.Fatalf("platform fingerprints diverge:\n%s\n%s", fp1, fp2)
	}
	if r1.Makespan != r2.Makespan || r1.Offered != r2.Offered || r1.Completed != r2.Completed ||
		r1.Failed != r2.Failed || r1.Shed != r2.Shed || r1.Fairness != r2.Fairness {
		t.Fatalf("results diverge:\n%+v\n%+v", r1, r2)
	}
	if len(r1.Tenants) != len(r2.Tenants) {
		t.Fatalf("tenant counts diverge: %d vs %d", len(r1.Tenants), len(r2.Tenants))
	}
	for i := range r1.Tenants {
		a, b := r1.Tenants[i], r2.Tenants[i]
		a.FirstShed, b.FirstShed = nil, nil
		if a != b {
			t.Fatalf("tenant %d diverges:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestTenantTailsMatchWindowGauges pins the driver's one quantile rule:
// with a single observation window spanning the whole run, every
// tenant's reported P50/P95/P99 equal the exact nearest-rank gauges
// that window folds (obs.win.0000.t<i>.latency.seconds.*), which is
// what consumers reading either surface rely on.
func TestTenantTailsMatchWindowGauges(t *testing.T) {
	const duration = 0.5
	reg := metrics.New()
	res, err := driver.Run(platform.Default(), driver.Config{
		Seed:     11,
		Duration: duration,
		Tenants: []driver.TenantConfig{
			{Name: "steady", Mix: testMix(t), Arrival: driver.Arrival{Process: driver.Poisson, QPS: 60}},
			{Name: "spiky", Mix: testMix(t), Arrival: driver.Arrival{Process: driver.Bursty, QPS: 60, BurstFactor: 4}},
			{Name: "even", Mix: testMix(t), Arrival: driver.Arrival{Process: driver.Uniform, QPS: 40}},
		},
		Metrics:   reg,
		ObsWindow: 1e6 * duration,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Tenants {
		if tr.Completed < 10 {
			t.Fatalf("tenant %s completed %d requests; too few for distinct tails", tr.Name, tr.Completed)
		}
		base := fmt.Sprintf("%s%04d.t%d.latency.seconds.", metrics.ObsWindowPrefix, 0, i)
		if got := reg.Gauge(base + "count").Value(); got != float64(tr.Completed) {
			t.Errorf("tenant %s: window holds %v latencies, %d completed", tr.Name, got, tr.Completed)
		}
		for _, q := range []struct {
			stat string
			got  float64
		}{{"p50", tr.P50}, {"p95", tr.P95}, {"p99", tr.P99}} {
			if want := reg.Gauge(base + q.stat).Value(); q.got != want {
				t.Errorf("tenant %s: %s %v, window gauge %v", tr.Name, q.stat, q.got, want)
			}
		}
	}
}

// TestZeroTrafficIdentity is the zero-traffic contract: a serving run
// with no tenants schedules nothing and leaves the platform
// byte-identical to a machine that never served at all.
func TestZeroTrafficIdentity(t *testing.T) {
	idle := platform.Default()
	served := platform.Default()
	res, err := driver.Run(served, driver.Config{Seed: 42, Duration: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 0 || res.Makespan != 0 {
		t.Fatalf("zero-traffic run did work: %+v", res)
	}
	if res.Fairness != 1 {
		t.Fatalf("zero-traffic fairness %v, want 1", res.Fairness)
	}
	if got, want := served.Fingerprint(), idle.Fingerprint(); got != want {
		t.Fatalf("zero-traffic run perturbed the platform:\n%s\n%s", got, want)
	}
}

// TestAdmissionShedsTyped pins the admission-control contract: a
// saturating burst against a single service slot with no wait queue
// sheds with typed *resilience.AdmitError, accounts every refusal, and
// keeps serving.
func TestAdmissionShedsTyped(t *testing.T) {
	p := platform.Default()
	slow, err := driver.NewMix(driver.MixEntry{
		Scenario: driver.Synthetic("slow", 6, 5e9, 1<<22), Weight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := driver.Run(p, driver.Config{
		Seed:     42,
		Duration: 0.01,
		Tenants: []driver.TenantConfig{{
			Name:    "storm",
			Mix:     slow,
			Arrival: driver.Arrival{Process: driver.Uniform, QPS: 1000},
		}},
		MaxInFlight: 1,
		MaxQueue:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tenants[0]
	if tr.Shed == 0 {
		t.Fatalf("saturating burst shed nothing: %+v", tr)
	}
	if tr.FirstShed == nil {
		t.Fatal("no typed AdmitError recorded")
	}
	var admit *resilience.AdmitError
	if !errors.As(error(tr.FirstShed), &admit) {
		t.Fatalf("FirstShed is %T, want *resilience.AdmitError", tr.FirstShed)
	}
	if admit.Tenant != "storm" || admit.InFlight != 1 || admit.Queued != 0 {
		t.Fatalf("AdmitError fields wrong: %+v", admit)
	}
	if admit.Error() == "" {
		t.Fatal("empty AdmitError message")
	}
	if tr.Completed == 0 {
		t.Fatal("shedding tenant never completed anything")
	}
}

// TestServingUnderChaos is the driver's chaos leg: generated fault
// schedules against a serving run must end with every request either
// completed or refused/failed typed-clean — never an untyped error,
// never stranded live state.
func TestServingUnderChaos(t *testing.T) {
	const seed = 42
	for i := 0; i < 4; i++ {
		rules := chaos.Schedule(seed, i, chaos.ScheduleParams{MaxRate: 0.08, Horizon: 0.3})
		plan, err := fault.NewPlanChecked(fault.Mix64(seed^uint64(i)), rules...)
		if err != nil {
			t.Fatal(err)
		}
		p := platform.Default()
		p.InstallFaults(plan, nvme.RetryPolicy{Timeout: 0.5, MaxAttempts: 3, Backoff: 1e-3})
		pol := resilience.Policy{
			LineRetries: 1,
			Backoff:     resilience.Backoff{Base: 1e-3, Factor: 2, Cap: 50e-3, Jitter: 0.25, Seed: seed + uint64(i)},
			Breaker:     resilience.BreakerPolicy{Threshold: 3, Cooldown: 100e-3},
		}
		res, err := driver.Run(p, driver.Config{
			Seed:     seed,
			Duration: 0.2,
			Tenants: []driver.TenantConfig{
				{Name: "chaotic", Mix: testMix(t), Arrival: driver.Arrival{Process: driver.Poisson, QPS: 50}},
			},
			Resilience: &pol,
		})
		if err != nil {
			t.Fatalf("schedule %d: untyped failure: %v", i, err)
		}
		if got := res.Completed + res.Failed + res.Shed; got != res.Offered {
			t.Fatalf("schedule %d leaks requests: %+v", i, res)
		}
		if err := p.Drained(); err != nil {
			t.Fatalf("schedule %d: %v", i, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	p := platform.Default()
	if _, err := driver.Run(nil, driver.Config{}); err == nil {
		t.Fatal("nil platform accepted")
	}
	bad := []driver.Config{
		{Duration: -1},
		{Duration: math.NaN()},
		{Duration: 1, Tenants: []driver.TenantConfig{{Name: "x"}}},     // nil mix
		{Tenants: []driver.TenantConfig{{Name: "x", Mix: testMix(t)}}}, // zero horizon
		{Duration: 1, Tenants: []driver.TenantConfig{{Mix: testMix(t), Arrival: driver.Arrival{Process: "weird", QPS: 1}}}},
		{Duration: 1, Tenants: []driver.TenantConfig{{Mix: testMix(t), Arrival: driver.Arrival{Process: driver.Poisson}}}}, // no QPS
	}
	for i, cfg := range bad {
		if _, err := driver.Run(p, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestArrivalProcesses(t *testing.T) {
	horizon := 50.0
	gen := func(a driver.Arrival, seed uint64) []float64 {
		return driver.ArrivalTimesForTest(a, seed, horizon)
	}
	t.Run("poisson-rate", func(t *testing.T) {
		ts := gen(driver.Arrival{Process: driver.Poisson, QPS: 20}, 1)
		rate := float64(len(ts)) / horizon
		if rate < 16 || rate > 24 {
			t.Fatalf("poisson rate %v far from 20", rate)
		}
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				t.Fatal("arrivals not strictly increasing")
			}
		}
	})
	t.Run("bursty-average", func(t *testing.T) {
		ts := gen(driver.Arrival{Process: driver.Bursty, QPS: 20, BurstFactor: 4}, 2)
		rate := float64(len(ts)) / horizon
		if rate < 14 || rate > 26 {
			t.Fatalf("bursty long-run rate %v far from 20", rate)
		}
	})
	t.Run("uniform-spacing", func(t *testing.T) {
		ts := gen(driver.Arrival{Process: driver.Uniform, QPS: 10}, 3)
		if len(ts) != 500 {
			t.Fatalf("uniform generated %d arrivals, want 500", len(ts))
		}
	})
	t.Run("deterministic", func(t *testing.T) {
		a := driver.Arrival{Process: driver.Bursty, QPS: 30, BurstFactor: 6, DutyCycle: 0.2, Period: 2}
		x, y := gen(a, 9), gen(a, 9)
		if len(x) != len(y) {
			t.Fatal("same seed, different counts")
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatal("same seed, different times")
			}
		}
	})
}

// openLoopConfig is three Poisson tenants offering about requests
// requests in total, at a fifth of the synthetic mix's capacity.
func openLoopConfig(t testing.TB, requests int) driver.Config {
	const qps = 800.0 // per tenant
	cfg := driver.Config{Seed: 42, Duration: float64(requests) / (3 * qps)}
	for _, name := range []string{"a", "b", "c"} {
		cfg.Tenants = append(cfg.Tenants, driver.TenantConfig{
			Name: name, Mix: testMix(t), Arrival: driver.Arrival{Process: driver.Poisson, QPS: qps},
		})
	}
	return cfg
}

// TestOpenLoopCalendarDepth pins the calendar's depth during an
// open-loop run: the driver books one arrival per tenant at a time, so
// the calendar holds the in-flight work plus one event per tenant, not
// the ~7,200 arrivals of the whole horizon.
func TestOpenLoopCalendarDepth(t *testing.T) {
	if peak := calendarPeak(t, platform.Default(), openLoopConfig(t, 7200)); peak >= 64 {
		t.Errorf("calendar peaked at %d pending events, want fewer than 64", peak)
	}
}

// calendarPeak runs cfg's roughly 7,200 requests on p and returns the
// deepest calendar a probe saw. The probe reads the calendar's depth
// 1,000 times across the arrival horizon. It only reads, so the run's
// outcome is unchanged.
func calendarPeak(t *testing.T, p *platform.Platform, cfg driver.Config) int {
	t.Helper()
	peak := 0
	step := cfg.Duration / 1000
	var probe func()
	probe = func() {
		peak = max(peak, p.Sim.Pending())
		if p.Sim.Now()+step < cfg.Duration {
			p.Sim.After(step, probe)
		}
	}
	p.Sim.At(0, probe)
	res, err := driver.Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered < 7000 {
		t.Fatalf("offered %d requests, want about 7,200", res.Offered)
	}
	return peak
}

// supervisedOpenLoop is the open-loop config under NVMe supervision:
// every command books a 20 ms completion timer, far above the 2.6 ms
// the synthetic mix's largest request takes alone, and every offloaded
// line carries a 24 ms deadline, with the resilience ladder behind
// them. The platform comes back with the timers installed.
func supervisedOpenLoop(t testing.TB, requests int) (*platform.Platform, driver.Config) {
	const timeout = 20e-3
	p := platform.Default()
	p.Dev.QP.SetRetryPolicy(nvme.RetryPolicy{Timeout: timeout, MaxAttempts: 2, Backoff: timeout / 8})
	cfg := openLoopConfig(t, requests)
	cfg.Resilience = &resilience.Policy{
		LineDeadline: 1.2 * timeout,
		LineRetries:  1,
		Backoff:      resilience.Backoff{Base: timeout / 8, Factor: 2, Cap: timeout / 2, Jitter: 0.25, Seed: 7},
		Breaker:      resilience.BreakerPolicy{Threshold: 3, Cooldown: 1e-3},
	}
	return p, cfg
}

// TestSupervisedCalendarDepth pins the calendar's depth when every NVMe
// command books a completion timer and cancels it microseconds later:
// a canceled timer leaves the calendar at once, so the calendar holds
// the in-flight work, one live timer per command in flight and one
// arrival per tenant (14 events at most on this run). A calendar that
// kept each canceled timer until its time came would also hold every
// timer booked in the last 20 ms, and peaks at 130 events here.
func TestSupervisedCalendarDepth(t *testing.T) {
	p, cfg := supervisedOpenLoop(t, 7200)
	peak := calendarPeak(t, p, cfg)
	if timeouts, _, _, _, _ := p.Dev.QP.FaultStats(); timeouts != 0 {
		t.Fatalf("%d completion timers expired; the timers must be armed and canceled, not fire", timeouts)
	}
	if peak >= 32 {
		t.Errorf("calendar peaked at %d pending events, want fewer than 32", peak)
	}
}

// BenchmarkServeOpenLoop measures one open-loop serving run of about 360
// requests from three Poisson tenants on a fresh platform: the driver,
// exec replay, the device models and the event kernel together.
func BenchmarkServeOpenLoop(b *testing.B) {
	cfg := openLoopConfig(b, 360)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := driver.Run(platform.Default(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeFaultyOpenLoop is BenchmarkServeOpenLoop under the
// supervised config: completion timers, line deadlines and the
// resilience ladder, seeded NVMe completion drops and flash transient
// errors for the ladder to act on, and an obs collector observing every
// line.
func BenchmarkServeFaultyOpenLoop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, cfg := supervisedOpenLoop(b, 360)
		plan, err := fault.NewPlanChecked(fault.Mix64(42),
			fault.Rule{Point: fault.NVMeCompletionDrop, Rate: 0.01},
			fault.Rule{Point: fault.FlashTransient, Rate: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		p.Dev.InstallFaults(plan)
		cfg.Obs = obs.NewCollector(cfg.Duration/32, 0)
		b.StartTimer()
		if _, err := driver.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
