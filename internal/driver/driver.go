// Package driver is the multi-tenant serving layer over the simulated
// platform: an open/closed-loop workload driver that fires a weighted
// mix of prepared scenarios at one long-lived machine and accounts the
// resulting tail latency per tenant (DESIGN.md §14).
//
// A scenario is a view of a prepared program (core.Prepared: trace,
// partition, estimates) that Build prepares from a workload name or
// NewScenario views; a tenant owns a weighted Mix of scenarios, an
// arrival process, and a splitmix64 stream derived from the driver seed. Arrivals pass admission control — an in-flight
// budget backed by a bounded wait queue, with typed
// *resilience.AdmitError sheds — and admitted requests replay warm
// through exec.Launch, so every tenant's requests contend for the same
// host CPU, CSE, flash, and link. All scheduling happens on the
// platform's single event calendar: a run under a fixed seed is
// bit-reproducible, and a run with no tenants schedules nothing at all,
// leaving the machine byte-identical to an idle one (the zero-traffic
// contract).
package driver

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"activego/internal/exec"
	"activego/internal/fault"
	"activego/internal/metrics"
	"activego/internal/nvme"
	"activego/internal/obs"
	"activego/internal/platform"
	"activego/internal/resilience"
	"activego/internal/sim"
)

// TenantConfig describes one tenant: a named request stream with its
// own traffic mix and arrival process.
type TenantConfig struct {
	// Name labels the tenant in results and metrics; empty defaults to
	// "tenant<index>".
	Name    string
	Mix     *Mix
	Arrival Arrival
}

// Config parameterizes a serving run.
type Config struct {
	// Seed keys every tenant's arrival and mix-choice stream. Tenant i
	// derives its stream as splitmix64(Seed ^ splitmix64(i+1)), so
	// tenants never correlate and adding a tenant never perturbs the
	// others' traffic.
	Seed uint64
	// Duration is the arrival horizon in simulated seconds: no request
	// is generated at or after Duration, and the run then drains to
	// completion (makespan may exceed Duration).
	Duration float64
	Tenants  []TenantConfig
	// MaxInFlight bounds concurrently serving requests across all
	// tenants; values <= 0 mean 4.
	MaxInFlight int
	// MaxQueue bounds the admission wait queue behind a full in-flight
	// budget: 0 means twice MaxInFlight, negative means no queue (every
	// over-budget arrival sheds immediately).
	MaxQueue int
	// Resilience, when set, arms the DESIGN.md §12 degradation ladder
	// on every request's executor.
	Resilience *resilience.Policy
	// Retry, when non-zero, arms the NVMe completion timers and bounded
	// re-issue on the platform's queue pair before serving starts.
	Retry nvme.RetryPolicy
	// Metrics, when set, receives every tenant's sub-registry merged in
	// tenant order after the run. Observation only; nil changes nothing.
	Metrics *metrics.Registry
	// ObsWindow, when positive, bins each tenant's completed-request
	// latencies into ObsWindow-second sim-time windows (internal/obs,
	// DESIGN.md §15) and folds them into the tenant's sub-registry as
	// obs.win.* gauges — series names carry a t<index>. prefix so the
	// tenant-order merge never collides. Zero records no windows.
	ObsWindow float64
	// Obs, when set, is handed to every admitted request's executor so
	// per-line costs (compute seconds, D2H bytes, retries, queue wait)
	// accumulate across requests on one shared collector — the drift
	// study scores it against the scenario's plan provenance. Line
	// numbers are per-program, so this is meaningful when the traffic is
	// a single scenario (or scenarios sharing a line map). Nil is inert.
	Obs *obs.Collector
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight <= 0 {
		return 4
	}
	return c.MaxInFlight
}

func (c Config) maxQueue() int {
	switch {
	case c.MaxQueue < 0:
		return 0
	case c.MaxQueue == 0:
		return 2 * c.maxInFlight()
	}
	return c.MaxQueue
}

// Validate rejects configurations the driver cannot serve.
func (c Config) Validate() error {
	if c.Duration < 0 || math.IsNaN(c.Duration) || math.IsInf(c.Duration, 0) {
		return fmt.Errorf("driver: Duration %v out of range", c.Duration)
	}
	if len(c.Tenants) > 0 && c.Duration == 0 {
		return fmt.Errorf("driver: %d tenants with a zero Duration horizon", len(c.Tenants))
	}
	for i, tc := range c.Tenants {
		if tc.Mix == nil {
			return fmt.Errorf("driver: tenant %d (%s) has no mix", i, tc.Name)
		}
		if err := tc.Arrival.Validate(); err != nil {
			return fmt.Errorf("driver: tenant %d (%s): %w", i, tc.Name, err)
		}
	}
	if c.Resilience != nil {
		if err := c.Resilience.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TenantResult is one tenant's accounting for a run.
type TenantResult struct {
	Name      string
	Offered   int // requests the arrival process generated
	Admitted  int // dispatched into service
	Queued    int // waited in the admission queue before dispatch
	Shed      int // refused with *resilience.AdmitError
	Completed int
	Failed    int // typed clean failures (*resilience.ShedError)

	// Latency statistics over completed requests, arrival to
	// completion, in simulated seconds; the quantiles are exact nearest
	// rank (metrics.Quantile).
	P50, P95, P99, Mean, Max float64
	// Throughput is completed requests per simulated second of makespan.
	Throughput float64
	// FirstShed is the first admission refusal's typed error, nil if the
	// tenant was never shed.
	FirstShed *resilience.AdmitError
}

// Result is a serving run's summary.
type Result struct {
	// Makespan is last completion minus run start, in simulated seconds.
	Makespan  float64
	Offered   int
	Admitted  int
	Shed      int
	Completed int
	Failed    int
	// Fairness is Jain's index over per-tenant goodput shares
	// (completed/offered); 1 is perfectly fair, 1/n maximally unfair.
	Fairness float64
	Tenants  []TenantResult
}

// Jain computes Jain's fairness index (Σx)²/(n·Σx²) over the shares xs.
// Empty or all-zero input yields 1 (nothing was served unfairly).
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// tenantState is one tenant's live accounting during a run.
type tenantState struct {
	index int
	cfg   TenantConfig
	name  string
	reg   *metrics.Registry // per-tenant sub-registry, always non-nil
	win   *obs.Windows      // per-window latency series; nil when ObsWindow is off
	rng   *stream
	seq   int          // next tenant-local request number
	done  []completion // completed requests in completion order

	// Open-loop traffic, pre-generated in stream order: arrival offsets
	// from the run start and the scenario each arrival picked. next is
	// the arrival booked on the calendar, and fire, bound once, admits it.
	arrivals []float64
	picks    []*Scenario
	next     int
	fire     func()

	offered, admitted, queued, shed, completed, failed int
	firstShed                                          *resilience.AdmitError
}

// completion is one completed request: its completion time from the
// run start and its arrival-to-completion latency.
type completion struct{ at, latency float64 }

// request is one arrival moving through admission and service.
type request struct {
	t          *tenantState
	seq        int
	sc         *Scenario
	arrived    sim.Time
	dispatched sim.Time
	closedLoop bool
}

// engine wires the tenants to the platform's event calendar.
type engine struct {
	p       *platform.Platform
	cfg     Config
	start   sim.Time
	horizon sim.Time
	tenants []*tenantState

	inflight int
	queue    []*request
	fatal    error // first untyped executor failure, reported after drain
}

// Run serves cfg's tenants against p until the arrival horizon passes
// and every admitted request drains, then returns the per-tenant
// accounting. The caller hands over an idle platform; Run owns the
// event calendar for the duration (one Sim.Run drives every executor).
// Request failures that are typed clean (*resilience.ShedError) are
// accounted and absorbed; any untyped executor failure aborts the run
// with that error after the calendar drains.
func Run(p *platform.Platform, cfg Config) (*Result, error) {
	if p == nil {
		return nil, errors.New("driver: nil platform")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &engine{p: p, cfg: cfg, start: p.Sim.Now()}
	e.horizon = e.start + cfg.Duration
	if len(cfg.Tenants) > 0 && cfg.Retry != (nvme.RetryPolicy{}) {
		p.Dev.QP.SetRetryPolicy(cfg.Retry)
	}
	for i, tc := range cfg.Tenants {
		ts := &tenantState{
			index: i,
			cfg:   tc,
			name:  tc.Name,
			reg:   metrics.New(),
			win:   obs.NewWindows(cfg.ObsWindow, 0),
			rng:   &stream{state: fault.Mix64(cfg.Seed ^ fault.Mix64(uint64(i)+1))},
		}
		if ts.name == "" {
			ts.name = fmt.Sprintf("tenant%d", i)
		}
		e.tenants = append(e.tenants, ts)
		e.scheduleTenant(ts)
	}
	p.Sim.Run()
	if e.fatal != nil {
		return nil, e.fatal
	}
	return e.results(), nil
}

// scheduleTenant starts the tenant's arrival process on the calendar.
// Open-loop streams pre-generate their times and scenario picks, so the
// tenant's stream is consumed in a fixed order no matter how service
// interleaves, but only the next arrival is booked: the calendar holds
// the in-flight work plus one event per tenant, not the whole horizon.
// Closed-loop workers draw per issue, which is equally deterministic
// because the single-threaded calendar fires completions in a fixed
// order.
func (e *engine) scheduleTenant(ts *tenantState) {
	a := ts.cfg.Arrival
	if a.Process == Closed {
		workers := a.workers()
		for w := 0; w < workers; w++ {
			// Stagger the population's first issues across one think
			// time so a large closed population doesn't arrive as a
			// single synchronized spike.
			at := e.start + a.Think*float64(w)/float64(workers)
			if at >= e.horizon {
				continue
			}
			e.p.Sim.At(at, func() { e.issue(ts, true) })
		}
		return
	}
	ts.arrivals = a.times(ts.rng, e.cfg.Duration)
	ts.picks = make([]*Scenario, len(ts.arrivals))
	for i := range ts.picks {
		ts.picks[i] = ts.cfg.Mix.Pick(ts.rng.uniform())
	}
	if len(ts.arrivals) > 0 {
		ts.fire = func() { e.fireArrival(ts) }
		e.bookArrival(ts)
	}
}

func (e *engine) bookArrival(ts *tenantState) {
	e.p.Sim.At(e.start+ts.arrivals[ts.next], ts.fire)
}

// fireArrival admits the tenant's booked arrival. It books the next one
// first, so that arrival still precedes everything this one schedules for
// the same instant, as when the whole stream was booked up front.
func (e *engine) fireArrival(ts *tenantState) {
	sc := ts.picks[ts.next]
	ts.next++
	if ts.next < len(ts.arrivals) {
		e.bookArrival(ts)
	}
	e.arrive(ts, sc, false)
}

// issue is a closed-loop worker generating its next request.
func (e *engine) issue(ts *tenantState, closedLoop bool) {
	sc := ts.cfg.Mix.Pick(ts.rng.uniform())
	e.arrive(ts, sc, closedLoop)
}

// arrive runs admission control for one generated request.
func (e *engine) arrive(ts *tenantState, sc *Scenario, closedLoop bool) {
	now := e.p.Sim.Now()
	req := &request{t: ts, seq: ts.seq, sc: sc, arrived: now, closedLoop: closedLoop}
	ts.seq++
	ts.offered++
	ts.reg.Counter(metrics.MetricDriverOffered).Add(1)
	switch {
	case e.inflight < e.cfg.maxInFlight():
		e.dispatch(req)
	case len(e.queue) < e.cfg.maxQueue():
		ts.queued++
		ts.reg.Counter(metrics.MetricDriverQueued).Add(1)
		e.queue = append(e.queue, req)
		e.sampleQueue(now)
	default:
		shed := &resilience.AdmitError{
			Tenant:   ts.name,
			Request:  req.seq,
			InFlight: e.inflight,
			Queued:   len(e.queue),
		}
		ts.shed++
		ts.reg.Counter(metrics.MetricDriverShed).Add(1)
		if ts.firstShed == nil {
			ts.firstShed = shed
		}
		// A shed closed-loop worker thinks and tries again — a fixed
		// user population doesn't vanish because the front door was
		// shut once.
		if closedLoop {
			e.reissueAfterThink(ts, now)
		}
	}
}

// dispatch launches one admitted request's executor on the shared
// calendar. The scenario replays warm (Scenario.ReplayOptions): its
// cold pipeline cost was paid at preparation, so a request pays only
// storage, compute, and link.
func (e *engine) dispatch(req *request) {
	now := e.p.Sim.Now()
	ts := req.t
	req.dispatched = now
	e.inflight++
	e.sampleInFlight(now)
	ts.admitted++
	ts.reg.Counter(metrics.MetricDriverAdmitted).Add(1)
	ts.reg.Histogram(metrics.MetricDriverWait).Observe(now - req.arrived)
	opts := req.sc.ReplayOptions()
	opts.Resilience = e.cfg.Resilience
	opts.Metrics = ts.reg
	opts.Obs = e.cfg.Obs
	_, err := exec.Launch(e.p, req.sc.Trace, opts, func(res *exec.Result, rerr error) { e.finish(req, rerr) })
	if err != nil && e.fatal == nil {
		e.fatal = fmt.Errorf("driver: %s request %d: %w", ts.name, req.seq, err)
	}
}

// finish settles one request's outcome and feeds the next queued
// arrival into the freed service slot.
func (e *engine) finish(req *request, rerr error) {
	now := e.p.Sim.Now()
	ts := req.t
	e.inflight--
	e.sampleInFlight(now)
	if rerr != nil {
		var shed *resilience.ShedError
		if errors.As(rerr, &shed) {
			ts.failed++
			ts.reg.Counter(metrics.MetricDriverFailed).Add(1)
		} else if e.fatal == nil {
			e.fatal = fmt.Errorf("driver: %s request %d: %w", ts.name, req.seq, rerr)
		}
	} else {
		ts.completed++
		ts.reg.Counter(metrics.MetricDriverCompleted).Add(1)
		ts.reg.Histogram(metrics.MetricDriverService).Observe(now - req.dispatched)
		// Completion times count from the run start, so tenant windows
		// line up no matter how warm the platform's clock was at entry.
		ts.done = append(ts.done, completion{at: now - e.start, latency: now - req.arrived})
	}
	if req.closedLoop {
		e.reissueAfterThink(ts, now)
	}
	if len(e.queue) > 0 && e.inflight < e.cfg.maxInFlight() {
		next := e.queue[0]
		e.queue = e.queue[1:]
		e.sampleQueue(now)
		e.dispatch(next)
	}
}

// reissueAfterThink schedules a closed-loop worker's next request,
// unless its think time carries it past the arrival horizon.
func (e *engine) reissueAfterThink(ts *tenantState, now sim.Time) {
	at := now + ts.cfg.Arrival.Think
	if at >= e.horizon {
		return
	}
	e.p.Sim.At(at, func() { e.issue(ts, true) })
}

func (e *engine) sampleInFlight(now sim.Time) {
	e.p.Sim.Recorder().Sample(metrics.SeriesDriverInFlight, now, float64(e.inflight))
}

func (e *engine) sampleQueue(now sim.Time) {
	e.p.Sim.Recorder().Sample(metrics.SeriesDriverQueueDepth, now, float64(len(e.queue)))
}

// results folds the tenant states into the run summary and merges the
// sub-registries into cfg.Metrics in tenant order. Each tenant's
// completions, in completion order, fill its latency histogram and its
// latency window, and give its exact quantiles.
func (e *engine) results() *Result {
	r := &Result{Makespan: e.p.Sim.Now() - e.start}
	shares := make([]float64, 0, len(e.tenants))
	for _, ts := range e.tenants {
		h := ts.reg.Histogram(metrics.MetricDriverLatency)
		series := fmt.Sprintf("t%d.latency.seconds", ts.index)
		sorted := make([]float64, len(ts.done))
		for i, c := range ts.done {
			h.Observe(c.latency)
			ts.win.Observe(series, c.at, c.latency)
			sorted[i] = c.latency
		}
		sort.Float64s(sorted)
		tr := TenantResult{
			Name:      ts.name,
			Offered:   ts.offered,
			Admitted:  ts.admitted,
			Queued:    ts.queued,
			Shed:      ts.shed,
			Completed: ts.completed,
			Failed:    ts.failed,
			FirstShed: ts.firstShed,
			P50:       metrics.Quantile(sorted, 0.50),
			P95:       metrics.Quantile(sorted, 0.95),
			P99:       metrics.Quantile(sorted, 0.99),
			Max:       metrics.Quantile(sorted, 1),
		}
		if n := h.Count(); n > 0 {
			tr.Mean = h.Sum() / float64(n)
		}
		if r.Makespan > 0 {
			tr.Throughput = float64(ts.completed) / r.Makespan
		}
		r.Tenants = append(r.Tenants, tr)
		r.Offered += ts.offered
		r.Admitted += ts.admitted
		r.Shed += ts.shed
		r.Completed += ts.completed
		r.Failed += ts.failed
		shares = append(shares, float64(ts.completed)/math.Max(1, float64(ts.offered)))
		ts.win.Fold(ts.reg)
		e.cfg.Metrics.Merge(ts.reg)
	}
	r.Fairness = Jain(shares)
	return r
}
