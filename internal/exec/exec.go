// Package exec executes a traced program on the simulated platform.
//
// A trace (one record per dynamic source line) is replayed in order. Each
// record runs on the host or the CSD according to the partition; the
// executor bills exactly what the paper's system would pay:
//
//   - variable traffic over the 5 GB/s external link when a line consumes
//     data resident on the other side (the shared address space of
//     §III-C-a makes this a plain remote access);
//   - storage reads on the flash array, plus the external link when the
//     consumer is the host;
//   - compute on the unit's cores (kernel work data-parallel, surviving
//     interpreter glue serial, wrapper copies on the memory bus) priced
//     under the active codegen.Backend;
//   - CSD function-call dispatch through the NVMe call queue and per-line
//     status updates back to the host (§III-C-b);
//   - and, when enabled, the runtime monitoring and task-migration logic
//     of §III-D, triggered by the device's measured execution rate.
//
// Program values were already computed when the trace was produced;
// replay only decides where time goes. That separation keeps runs
// bit-deterministic regardless of placement or migration decisions.
package exec

import (
	"fmt"

	"activego/internal/analysis"
	"activego/internal/codegen"
	"activego/internal/csd"
	"activego/internal/lang/interp"
	"activego/internal/metrics"
	"activego/internal/nvme"
	"activego/internal/obs"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/resilience"
	"activego/internal/sim"
	"activego/internal/trace"
)

// Unit is a compute location.
type Unit int

// Units.
const (
	UnitHost Unit = iota
	UnitCSD
)

func (u Unit) String() string {
	if u == UnitHost {
		return "host"
	}
	return "csd"
}

// MigrationPolicy configures the §III-D monitor.
type MigrationPolicy struct {
	Enabled bool
}

// The monitor re-estimates the remaining offloaded work when the
// device's observed execution rate falls below ipcFraction of nominal,
// or below decreaseFactor of the previously observed rate.
const (
	ipcFraction    = 0.85
	decreaseFactor = 0.95
)

// DefaultMigration returns the policy used by the full ActivePy runtime.
func DefaultMigration() MigrationPolicy {
	return MigrationPolicy{Enabled: true}
}

// Options configures one execution.
type Options struct {
	Backend   codegen.Backend
	Partition codegen.Partition
	// Estimates (by line) feed the migration cost model; required when
	// Migration.Enabled.
	Estimates map[int]*plan.LineEstimate
	Migration MigrationPolicy
	// SamplingOverhead is the one-time sampling-phase latency charged
	// before execution (the paper reports ~0.1 s total with codegen).
	SamplingOverhead float64
	// OverheadScale multiplies every one-time overhead (sampling, compile,
	// regeneration); zero means 1. Experiment harnesses that run datasets
	// at 1/N of Table I's sizes pass 1/N here, preserving the paper's
	// overhead-to-runtime ratios (its ~0.1 s overheads against 11–73 s
	// applications).
	OverheadScale float64
	// UseCallQueue is ignored: every CSD line goes through the NVMe call
	// queue (§III-C-b).
	//
	// Deprecated: the field remains only because perfbench still sets it.
	UseCallQueue bool
	// Warm skips the one-time overheads (sampling latency, backend
	// compile) entirely: the program was prepared earlier and this run
	// reuses its artifacts. The serving driver sets it — a request against
	// a long-lived platform must not re-pay the cold pipeline cost the
	// scenario already paid at registration.
	Warm bool
	// Resilience arms the degradation ladder of DESIGN.md §12: per-line
	// deadlines enforced by the NVMe completion timers, budgeted line
	// re-posts under seeded exponential backoff, a circuit breaker that
	// suspends offload after consecutive CSD/NVMe faults and re-admits it
	// through a half-open probe, and a typed *resilience.ShedError when
	// the host rung fails too. Every breaker move is billed like a §III-D
	// migration (code regeneration up front, lazy data pulls as lines
	// touch variables resident on the other side). The resilience
	// package's presets cover the static per-line and one-shot failover
	// postures too. Nil turns any line failure into a run error.
	Resilience *resilience.Policy
	// Analysis, when set, gates execution on static verification: Run
	// refuses a partition that offloads a host-only line or a program
	// with a use before any definition. Nil skips the gate (traces from
	// tests that fabricate records have no program to analyze).
	Analysis *analysis.Report
	// Metrics, when set, receives per-line simulated latency
	// distributions and the run's counters (lines by unit, migrations,
	// retries, link bytes). Observation only — a nil registry leaves the
	// run bit-identical, and a non-nil one never feeds a decision.
	Metrics *metrics.Registry
	// Obs, when set, attributes observed per-line costs to sim-time
	// windows (DESIGN.md §15): compute seconds per unit, per-attempt D2H
	// bytes, call-queue wait, and retries. Same contract as Metrics: a
	// nil collector is inert and a live one never feeds a decision.
	Obs *obs.Collector
}

// overheadScale resolves the overhead multiplier.
func (o Options) overheadScale() float64 {
	if o.OverheadScale > 0 {
		return o.OverheadScale
	}
	return 1
}

// regenOverhead is the code-regeneration latency every host<->device
// move pays.
func (o Options) regenOverhead() float64 {
	return codegen.RegenOverhead * o.overheadScale()
}

// Progress is a point on the offloaded task's completion timeline.
type Progress struct {
	Time sim.Time
	Frac float64 // fraction of CSD-assigned kernel+glue work completed
}

// Result reports one execution.
type Result struct {
	Start, End    sim.Time
	Duration      float64
	Migrated      bool     // §III-D monitor decided to migrate
	MigratedAt    sim.Time // instant of monitor migration
	RecordsOnCSD  int
	RecordsOnHost int
	D2HBytes      float64 // external-link bytes moved during the run
	StatusMsgs    uint64
	CSDProgress   []Progress

	// Failure-path accounting (all zero on a fault-free run).
	FailedCalls uint64 // offloaded line invocations that returned a non-OK status
	Retries     uint64 // NVMe command re-issues plus exec-level line re-posts
	Timeouts    uint64 // NVMe completion-timer expiries observed during the run

	// Resilience-ladder accounting (all zero unless Options.Resilience).
	BreakerOpens   uint64 // breaker transitions to open (offload suspended)
	BreakerCloses  uint64 // half-open probes that succeeded and re-closed it
	BreakerProbes  uint64 // half-open probes admitted
	DegradedLines  uint64 // partition lines run on the host while open
	DeadlineMisses uint64 // offloaded calls abandoned at their line deadline
}

// varState is where one variable resides and its size there. The zero
// value is a variable not yet written: it holds no bytes, so pulling it
// across the link bills nothing.
type varState struct {
	unit  Unit
	bytes int64
}

type executor struct {
	p     *platform.Platform
	trace *interp.Trace
	opts  Options

	idx      int
	slots    *interp.VarSlots // the trace's variable numbering
	varHome  []varState       // residency by slot
	migrated bool
	breaker  *resilience.Breaker // non-nil iff Options.Resilience is set
	res      *Result
	err      error

	totalCSDWork float64 // kernel+glue work across CSD-assigned records
	csdRecords   int     // CSD-assigned records: the most progress points a run appends
	doneCSDWork  float64
	lastObserved float64

	lineAttempts int      // failed attempts of the current record
	lineRetries  uint64   // total exec-level line re-posts
	lineStart    sim.Time // dispatch time of the current attempt, for spans
	lineD2H0     float64  // link-bytes baseline at dispatch, for per-attempt attribution

	d2hBytes0     float64
	statusMsgs0   uint64
	nvmeTimeouts0 uint64
	nvmeRetries0  uint64
	done          bool
	notify        func(*Result, error) // invoked exactly once; nil after it fires

	callDone func(nvme.Completion) // onCallDone, bound once
	runs     []*lineRun            // finished line runs; see lineRun
	// lineHist holds the per-line latency histogram of each unit,
	// resolved from Metrics when the unit first completes a line, so a
	// unit that runs nothing registers no histogram.
	lineHist [2]*metrics.Histogram
}

// Handle is an in-flight execution started by Launch. Its accessors are
// only meaningful once the caller has driven the platform's calendar
// (p.Sim.Run or equivalent) past the program's completion.
type Handle struct {
	e *executor
}

// Result returns the execution's outcome. A nil error with a nil result
// means the calendar drained while the program was still in flight — a
// stuck run — and the returned error describes where it stranded.
func (h *Handle) Result() (*Result, error) {
	e := h.e
	if e.err != nil {
		return nil, e.err
	}
	if !e.done {
		if e.idx < len(e.trace.Records) {
			return nil, fmt.Errorf(
				"exec: simulation drained before the program finished: stuck at record %d/%d (source line %d); "+
					"a lost command with no completion timer strands the run — arm nvme.RetryPolicy completion timers or a resilience.Policy.LineDeadline",
				e.idx, len(e.trace.Records), e.trace.Records[e.idx].Line)
		}
		return nil, fmt.Errorf("exec: simulation drained before the program finished (deadlock in the event chain)")
	}
	return e.res, nil
}

// Launch schedules the replay of trace on p's calendar without driving
// it. The first step lands after the run's one-time overheads; the
// caller owns the calendar and decides when (and with what else
// interleaved) it runs — this is how a workload driver keeps many
// requests in flight on one platform, contending for the same host
// cores, CSEs, flash channels, and link. done, when non-nil, fires
// exactly once from inside the event loop: with the Result on success,
// or with the terminal error (typed *resilience.ShedError included) on
// failure. A run the calendar strands (drained while incomplete) never
// fires done; the caller detects it through Handle.Result after the
// calendar drains. Validation errors surface immediately and schedule
// nothing.
func Launch(p *platform.Platform, trace *interp.Trace, opts Options, done func(*Result, error)) (*Handle, error) {
	if opts.Migration.Enabled && opts.Estimates == nil {
		return nil, fmt.Errorf("exec: migration enabled without line estimates")
	}
	// The post-hoc legality gate (§III-B refined): no partition reaches
	// codegen or the device unless the static analysis signs off.
	if opts.Analysis != nil {
		if err := opts.Analysis.VerifyError(opts.Partition); err != nil {
			return nil, fmt.Errorf("exec: rejected partition: %w", err)
		}
	}
	slots := trace.Slots()
	e := &executor{
		p:       p,
		trace:   trace,
		opts:    opts,
		slots:   slots,
		varHome: make([]varState, slots.Count),
		res:     &Result{Start: p.Sim.Now()},
		notify:  done,
	}
	if pol := opts.Resilience; pol != nil {
		if err := pol.Validate(); err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		e.breaker = resilience.NewBreaker(pol.Breaker)
	}
	e.callDone = e.onCallDone
	for i := range trace.Records {
		if opts.Partition.OnCSD(trace.Records[i].Line) {
			e.totalCSDWork += recordWork(&trace.Records[i])
			e.csdRecords++
		}
	}
	e.d2hBytes0 = p.Topo.D2H.TotalBytes()
	_, e.statusMsgs0 = p.Dev.Stats()
	e.nvmeTimeouts0, e.nvmeRetries0, _, _, _ = p.Dev.QP.FaultStats()
	e.lastObserved = effectiveRate(p)

	overhead := (opts.SamplingOverhead + opts.Backend.CompileOverhead) * opts.overheadScale()
	if opts.Warm {
		overhead = 0
	}
	p.Sim.After(overhead, e.step)
	return &Handle{e: e}, nil
}

// Run replays trace on p under opts and returns when the simulated
// program completes. The platform's simulator is advanced in place, so
// sequential runs on one platform accumulate simulated time; Result
// reports the run's own duration.
func Run(p *platform.Platform, trace *interp.Trace, opts Options) (*Result, error) {
	h, err := Launch(p, trace, opts, nil)
	if err != nil {
		return nil, err
	}
	p.Sim.Run()
	return h.Result()
}

func effectiveRate(p *platform.Platform) float64 {
	_, rate := p.Dev.PerfCounters()
	return rate
}

// recordWork is the CSE-time-proportional work of one record: kernel plus
// interpreter glue (storage reads are array-bound, not CSE-bound).
func recordWork(rec *interp.LineRecord) float64 {
	return rec.Cost.KernelWork + rec.Cost.GlueWork
}

func (e *executor) finish() {
	e.done = true
	e.res.End = e.p.Sim.Now()
	e.res.Duration = e.res.End - e.res.Start
	e.res.D2HBytes = e.p.Topo.D2H.TotalBytes() - e.d2hBytes0
	_, msgs := e.p.Dev.Stats()
	e.res.StatusMsgs = msgs - e.statusMsgs0
	timeouts, retries, _, _, _ := e.p.Dev.QP.FaultStats()
	e.res.Timeouts = timeouts - e.nvmeTimeouts0
	e.res.Retries = (retries - e.nvmeRetries0) + e.lineRetries
	e.foldMetrics()
	if fn := e.notify; fn != nil {
		e.notify = nil
		fn(e.res, nil)
	}
}

// abort terminates the execution with err: no further events are
// scheduled for this run, and the completion callback (if any) fires
// with the error.
func (e *executor) abort(err error) {
	e.err = err
	if fn := e.notify; fn != nil {
		e.notify = nil
		fn(nil, err)
	}
}

// foldMetrics folds the completed run's Result into the registry. Pure
// observation after the simulation settled; with a nil registry every
// call below is a no-op.
func (e *executor) foldMetrics() {
	m := e.opts.Metrics
	if m == nil {
		return
	}
	m.Counter(metrics.MetricExecRuns).Add(1)
	m.Counter(metrics.MetricExecLinesCSD).Add(float64(e.res.RecordsOnCSD))
	m.Counter(metrics.MetricExecLinesHost).Add(float64(e.res.RecordsOnHost))
	m.Counter(metrics.MetricExecRetries).Add(float64(e.res.Retries))
	m.Counter(metrics.MetricExecFailedCalls).Add(float64(e.res.FailedCalls))
	m.Counter(metrics.MetricExecTimeouts).Add(float64(e.res.Timeouts))
	m.Counter(metrics.MetricExecStatusMsgs).Add(float64(e.res.StatusMsgs))
	m.Counter(metrics.MetricExecD2HBytes).Add(e.res.D2HBytes)
	if e.res.Migrated {
		m.Counter(metrics.MetricExecMigrations).Add(1)
	}
	if e.opts.Resilience != nil {
		m.Counter(metrics.MetricExecBreakerOpens).Add(float64(e.res.BreakerOpens))
		m.Counter(metrics.MetricExecBreakerCloses).Add(float64(e.res.BreakerCloses))
		m.Counter(metrics.MetricExecDegradedLines).Add(float64(e.res.DegradedLines))
		m.Counter(metrics.MetricExecDeadlineMisses).Add(float64(e.res.DeadlineMisses))
	}
}

func (e *executor) step() {
	if e.err != nil || e.idx >= len(e.trace.Records) {
		e.finish()
		return
	}
	rec := &e.trace.Records[e.idx]
	unit := UnitHost
	if !e.migrated && e.opts.Partition.OnCSD(rec.Line) {
		unit = UnitCSD
		if e.breaker != nil {
			admit, probe := e.breaker.Allow(e.p.Sim.Now())
			switch {
			case !admit:
				// Breaker open: the line's code was regenerated for the
				// host when the breaker opened; run it there.
				unit = UnitHost
				e.res.DegradedLines++
			case probe:
				// Half-open: re-admitting offload is the reverse of the
				// open move and pays the same §III-D bill.
				e.relocate(moveBreakerProbe, rec.Line, func() { e.dispatch(UnitCSD) })
				return
			}
		}
	}
	e.dispatch(unit)
}

// instant records a resilience-ladder transition on the exec fault lane.
func (e *executor) instant(name string, line int) {
	if r := e.p.Sim.Recorder(); r != nil {
		r.Instant("exec", "fault", name, e.p.Sim.Now(), trace.Arg{Key: "line", Value: line})
	}
}

// sampleBreakerState samples the breaker position counter (0 closed,
// 0.5 half-open, 1 open). Only transitions sample, so a run in which the
// breaker never moves emits nothing — keeping armed-but-idle runs
// bit-identical to clean ones.
func (e *executor) sampleBreakerState() {
	v := 0.0
	switch e.breaker.State() {
	case resilience.BreakerOpen:
		v = 1
	case resilience.BreakerHalfOpen:
		v = 0.5
	}
	e.p.Sim.Recorder().Sample(metrics.SeriesExecBreakerState, e.p.Sim.Now(), v)
}

// dispatch runs the current record on unit: host lines directly, CSD
// lines through the call queue; failures land in failLine.
func (e *executor) dispatch(unit Unit) {
	e.lineStart = e.p.Sim.Now()
	e.lineD2H0 = e.p.Topo.D2H.TotalBytes()
	if unit == UnitHost {
		e.runRecord(e.idx, UnitHost, nil)
		return
	}
	// §III-C-b: the host posts the line invocation to the call queue
	// mapped in device memory; the CSE picks it up, runs it, and the
	// completion path carries the result notification back. Under a
	// resilience policy the call carries a deadline the queue pair's
	// completion timers enforce.
	var deadline sim.Time
	if pol := e.opts.Resilience; pol != nil && pol.LineDeadline > 0 {
		deadline = e.p.Sim.Now() + pol.LineDeadline
	}
	// The payload names its own record: the queue pair may run it again
	// on a re-issue, and a run may start after the host gave up on this
	// attempt.
	i := e.idx
	e.p.Host.CallDeadline(e.p.Dev, csd.Call(func(_ *csd.Device, done func(uint16, any)) {
		// The CSE has picked the call up: everything since dispatch was
		// queue traversal. Observation only — a nil collector no-ops.
		e.opts.Obs.Queue(e.trace.Records[i].Line, e.p.Sim.Now(), e.p.Sim.Now()-e.lineStart)
		e.runRecord(i, UnitCSD, done)
	}), deadline, e.callDone)
}

// onCallDone is the host side of an offloaded line's call: its completion
// from the queue pair, or the failure the queue pair synthesized. It is
// bound once per request as callDone. The executor has one call
// outstanding at a time and stays on its record until the call settles,
// so the call is always the current record's.
func (e *executor) onCallDone(c nvme.Completion) {
	rec := &e.trace.Records[e.idx]
	if c.Status != nvme.StatusOK {
		if c.Status == nvme.StatusDeadline {
			e.res.DeadlineMisses++
		}
		e.failLine(rec, UnitCSD, fmt.Errorf(
			"exec: record %d (line %d): CSD call failed with NVMe status %#x (%v)",
			e.idx, rec.Line, c.Status, c.Value))
		return
	}
	e.afterRecord(rec, UnitCSD)
}

// failLine walks a failed line down the degradation ladder of
// DESIGN.md §12. With no policy armed the run aborts with the cause —
// a failure is never silently treated as success. Otherwise a CSD
// failure first feeds the circuit breaker; when it trips, the remaining
// retries are skipped and the line — and, through the step gate, every
// following partition line — moves to the host until a half-open probe
// re-admits offload. Rung one: re-post on the current unit after a
// seeded backoff delay, LineRetries times. Rung two: retries exhausted
// on the CSD without tripping the breaker, the single line falls back
// to the host (later lines return to the CSD) with no regeneration
// billed. Rung three: the host rung's budget is spent too — the run
// ends with a typed *resilience.ShedError, never a silent wrong answer.
func (e *executor) failLine(rec *interp.LineRecord, unit Unit, cause error) {
	if unit == UnitCSD {
		e.res.FailedCalls++
	}
	pol := e.opts.Resilience
	if pol == nil {
		e.abort(cause)
		return
	}
	if unit == UnitCSD && e.breaker.OnFailure(e.p.Sim.Now()) {
		e.lineAttempts = 0
		e.relocate(moveBreakerOpen, rec.Line, func() { e.dispatch(UnitHost) })
		return
	}
	if e.lineAttempts < pol.LineRetries {
		e.lineAttempts++
		e.lineRetries++
		e.instant("line-retry", rec.Line)
		e.opts.Obs.Retry(rec.Line, e.p.Sim.Now())
		delay := pol.Backoff.Delay(uint64(e.idx), e.lineAttempts)
		e.p.Sim.After(delay, func() { e.dispatch(unit) })
		return
	}
	if unit == UnitCSD {
		// Rung two: per-line host fallback. Data stays put; the host line
		// pulls device-resident variables lazily, as after a migration.
		e.lineAttempts = 0
		e.dispatch(UnitHost)
		return
	}
	shed := &resilience.ShedError{Record: e.idx, Line: rec.Line, Attempts: e.lineAttempts + 1, Cause: cause}
	e.instant("shed", rec.Line)
	if m := e.opts.Metrics; m != nil {
		m.Counter(metrics.MetricExecSheds).Add(1)
	}
	e.abort(shed)
}

// afterRecord finalizes the placement of the current record's writes,
// runs the monitor, and advances to the next record.
func (e *executor) afterRecord(rec *interp.LineRecord, unit Unit) {
	for k, s := range e.slots.Writes(e.idx) {
		e.varHome[s] = varState{unit: unit, bytes: rec.Writes[k].Bytes}
	}
	if r := e.p.Sim.Recorder(); r != nil {
		r.Span("exec", "exec", fmt.Sprintf("L%d@%s", rec.Line, unit), e.lineStart, e.p.Sim.Now())
	}
	if m := e.opts.Metrics; m != nil {
		h := e.lineHist[unit]
		if h == nil {
			name := metrics.MetricExecLineHost
			if unit == UnitCSD {
				name = metrics.MetricExecLineCSD
			}
			h = m.Histogram(name)
			e.lineHist[unit] = h
		}
		h.Observe(e.p.Sim.Now() - e.lineStart)
	}
	e.opts.Obs.Line(rec.Line, unit.String(), e.p.Sim.Now(),
		e.p.Sim.Now()-e.lineStart, e.p.Topo.D2H.TotalBytes()-e.lineD2H0)
	if unit == UnitCSD {
		if e.breaker != nil && e.breaker.OnSuccess(e.p.Sim.Now()) {
			// The half-open probe succeeded: offload is re-admitted and
			// the run returns to the CSD now that the device is healthy.
			e.res.BreakerCloses++
			e.instant("breaker-close", rec.Line)
			e.sampleBreakerState()
		}
		e.res.RecordsOnCSD++
		e.doneCSDWork += recordWork(rec)
		frac := 1.0
		if e.totalCSDWork > 0 {
			frac = e.doneCSDWork / e.totalCSDWork
		}
		if e.res.CSDProgress == nil {
			e.res.CSDProgress = make([]Progress, 0, e.csdRecords)
		}
		e.res.CSDProgress = append(e.res.CSDProgress, Progress{
			Time: e.p.Sim.Now(),
			Frac: frac,
		})
		e.p.Sim.Recorder().Sample(metrics.SeriesExecProgress, e.p.Sim.Now(), frac)
		if e.monitor() {
			// The monitor migrated; it owns the continuation.
			return
		}
	} else {
		e.res.RecordsOnHost++
	}
	e.advance()
}

// advance moves to the next record, resetting the per-line attempt count.
func (e *executor) advance() {
	e.idx++
	e.lineAttempts = 0
	e.step()
}
