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
// through one exec.Launcher, so every tenant's requests contend for the same
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
	// Metrics, when set, receives every request's executor counters and
	// the driver.request.*.seconds histograms as the run goes, and each
	// tenant's driver.requests.* counts after it. Observation only; nil
	// changes nothing and records nothing.
	Metrics *metrics.Registry
	// ObsWindow, when positive, bins each tenant's completed-request
	// latencies into ObsWindow-second sim-time windows (internal/obs,
	// DESIGN.md §15) and folds them into Metrics as obs.win.* gauges —
	// series names carry a t<index>. prefix, so tenants never collide.
	// Zero records no windows.
	ObsWindow float64
	// Obs, when set, is handed to every admitted request's executor so
	// each request's line attempts (compute seconds, own D2H bytes,
	// retries, call-queue wait) accumulate on one shared collector — the drift
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
	win   *obs.Windows // per-window latency series; nil when ObsWindow is off
	rng   *fault.Stream
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

// request is one arrival moving through admission and service. Records
// are reused once their request finishes, and done, which finishes the
// request, is bound once when a record is first built.
type request struct {
	t          *tenantState
	seq        int
	sc         *Scenario
	arrived    sim.Time
	dispatched sim.Time
	closedLoop bool
	done       func(error)
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

	launcher exec.Launcher // reuses finished requests' executors
	free     []*request    // finished request records

	// wait, service and latency are cfg.Metrics' request histograms,
	// each resolved at its first observation, so a run registers only
	// the histograms it feeds. Nil without a registry.
	wait, service, latency *metrics.Histogram
}

// Run serves cfg's tenants against p until the arrival horizon passes
// and every admitted request drains, then returns the per-tenant
// accounting. The caller hands over an idle platform; Run owns the
// event calendar for the duration (one Sim.Run drives every executor).
// Request failures that are typed clean (*resilience.ShedError) are
// accounted and absorbed; any untyped executor failure aborts the run
// with that error after the calendar drains, and so does a calendar that
// drains while admitted requests are still in flight (stranded).
func Run(p *platform.Platform, cfg Config) (*Result, error) {
	if p == nil {
		return nil, errors.New("driver: nil platform")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &engine{p: p, cfg: cfg, start: p.Sim.Now()}
	e.horizon = e.start + cfg.Duration
	for i, tc := range cfg.Tenants {
		ts := &tenantState{
			index: i,
			cfg:   tc,
			name:  tc.Name,
			win:   obs.NewWindows(cfg.ObsWindow, 0),
			rng:   fault.NewStream(fault.Mix64(cfg.Seed ^ fault.Mix64(uint64(i)+1))),
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
	if e.inflight > 0 {
		return nil, fmt.Errorf("driver: the calendar drained with %d admitted requests still in flight and %d queued behind them; "+
			"a lost command with no completion timer strands a request — arm nvme.RetryPolicy completion timers or a resilience.Policy.LineDeadline",
			e.inflight, len(e.queue))
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
	ts.done = make([]completion, 0, len(ts.arrivals))
	ts.picks = make([]*Scenario, len(ts.arrivals))
	for i := range ts.picks {
		ts.picks[i] = ts.cfg.Mix.Pick(ts.rng.Uniform())
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
	sc := ts.cfg.Mix.Pick(ts.rng.Uniform())
	e.arrive(ts, sc, closedLoop)
}

// arrive runs admission control for one generated request.
func (e *engine) arrive(ts *tenantState, sc *Scenario, closedLoop bool) {
	now := e.p.Sim.Now()
	seq := ts.seq
	ts.seq++
	ts.offered++
	switch {
	case e.inflight < e.cfg.maxInFlight():
		e.dispatch(e.request(ts, seq, sc, now, closedLoop))
	case len(e.queue) < e.cfg.maxQueue():
		ts.queued++
		e.queue = append(e.queue, e.request(ts, seq, sc, now, closedLoop))
		e.sampleQueue(now)
	default:
		ts.shed++
		// Only the tenant's first refusal is kept, so only it is built.
		if ts.firstShed == nil {
			ts.firstShed = &resilience.AdmitError{
				Tenant:   ts.name,
				Request:  seq,
				InFlight: e.inflight,
				Queued:   len(e.queue),
			}
		}
		// A shed closed-loop worker thinks and tries again — a fixed
		// user population doesn't vanish because the front door was
		// shut once.
		if closedLoop {
			e.reissueAfterThink(ts, now)
		}
	}
}

// request fills a finished request record, or a new one, for an
// admitted or queued arrival.
func (e *engine) request(ts *tenantState, seq int, sc *Scenario, arrived sim.Time, closedLoop bool) *request {
	var req *request
	if n := len(e.free); n > 0 {
		req = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		req = &request{}
		req.done = func(err error) { e.finish(req, err) }
	}
	*req = request{t: ts, seq: seq, sc: sc, arrived: arrived, closedLoop: closedLoop, done: req.done}
	return req
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
	e.observe(&e.wait, metrics.MetricDriverWait, now-req.arrived)
	opts := req.sc.ReplayOptions()
	opts.Resilience = e.cfg.Resilience
	opts.Metrics = e.cfg.Metrics
	opts.Obs = e.cfg.Obs
	err := e.launcher.Launch(e.p, req.sc.Trace, opts, req.done)
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
		} else if e.fatal == nil {
			e.fatal = fmt.Errorf("driver: %s request %d: %w", ts.name, req.seq, rerr)
		}
	} else {
		ts.completed++
		e.observe(&e.service, metrics.MetricDriverService, now-req.dispatched)
		e.observe(&e.latency, metrics.MetricDriverLatency, now-req.arrived)
		// Completion times count from the run start, so tenant windows
		// line up no matter how warm the platform's clock was at entry.
		ts.done = append(ts.done, completion{at: now - e.start, latency: now - req.arrived})
	}
	if req.closedLoop {
		e.reissueAfterThink(ts, now)
	}
	e.free = append(e.free, req)
	if len(e.queue) > 0 && e.inflight < e.cfg.maxInFlight() {
		// Shift the queue down in place: it holds at most MaxQueue
		// entries, and a popped front would make arrive's append
		// reallocate each time the window reached the array's end.
		next := e.queue[0]
		n := copy(e.queue, e.queue[1:])
		e.queue[n] = nil
		e.queue = e.queue[:n]
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

// observe records v in *h, first resolving *h as cfg.Metrics' named
// histogram.
func (e *engine) observe(h **metrics.Histogram, name string, v float64) {
	if *h == nil {
		*h = e.cfg.Metrics.Histogram(name)
	}
	(*h).Observe(v)
}

func (e *engine) sampleInFlight(now sim.Time) {
	e.p.Sim.Recorder().Sample(metrics.SeriesDriverInFlight, now, float64(e.inflight))
}

func (e *engine) sampleQueue(now sim.Time) {
	e.p.Sim.Recorder().Sample(metrics.SeriesDriverQueueDepth, now, float64(len(e.queue)))
}

// results folds the tenant states into the run summary and cfg.Metrics.
// Each tenant's completions, in completion order, give its mean, fill
// its latency window and give its exact quantiles; its counts become
// the driver.requests.* counters.
func (e *engine) results() *Result {
	r := &Result{Makespan: e.p.Sim.Now() - e.start}
	shares := make([]float64, 0, len(e.tenants))
	for _, ts := range e.tenants {
		series := fmt.Sprintf("t%d.latency.seconds", ts.index)
		sorted := make([]float64, len(ts.done))
		var sum float64
		for i, c := range ts.done {
			sum += c.latency
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
		if n := len(ts.done); n > 0 {
			tr.Mean = sum / float64(n)
		}
		r.Tenants = append(r.Tenants, tr)
		r.Offered += ts.offered
		r.Admitted += ts.admitted
		r.Shed += ts.shed
		r.Completed += ts.completed
		r.Failed += ts.failed
		shares = append(shares, float64(ts.completed)/math.Max(1, float64(ts.offered)))
		e.count(ts)
		ts.win.Fold(e.cfg.Metrics)
	}
	r.Fairness = Jain(shares)
	return r
}

// count adds a tenant's counts to cfg.Metrics' driver.requests.*
// counters. A zero count registers nothing, so the registry names only
// the counters some request moved.
func (e *engine) count(ts *tenantState) {
	for _, c := range [...]struct {
		name string
		n    int
	}{
		{metrics.MetricDriverOffered, ts.offered},
		{metrics.MetricDriverAdmitted, ts.admitted},
		{metrics.MetricDriverQueued, ts.queued},
		{metrics.MetricDriverShed, ts.shed},
		{metrics.MetricDriverCompleted, ts.completed},
		{metrics.MetricDriverFailed, ts.failed},
	} {
		if c.n > 0 {
			e.cfg.Metrics.Counter(c.name).Add(float64(c.n))
		}
	}
}
