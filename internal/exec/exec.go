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
	// retries, link bytes), and the traffic of device runs that outlived
	// their attempt (exec.abandoned.*). Observation only — a nil registry
	// leaves the run bit-identical, and a non-nil one never feeds a
	// decision.
	Metrics *metrics.Registry
	// Obs, when set, receives every line attempt once, when the host
	// settles it, and attributes it to sim-time windows (DESIGN.md §15):
	// compute seconds per unit, the attempt's own D2H bytes, call-queue
	// wait, and retries, all at the settle instant. Same contract as
	// Metrics: a nil collector is inert and a live one never feeds a
	// decision.
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
	// D2HBytes and StatusMsgs sum the run's closed line attempts: the
	// external-link bytes and §III-C-b status updates each attempt
	// issued. A device run that outlived its attempt bills neither; its
	// traffic goes to Options.Metrics' abandoned counters.
	D2HBytes    float64
	StatusMsgs  uint64
	CSDProgress []Progress

	// Failure-path accounting (all zero on a fault-free run).
	FailedCalls uint64 // offloaded line invocations that returned a non-OK status
	Retries     uint64 // the run's NVMe command re-issues plus its line re-posts
	Timeouts    uint64 // the run's own NVMe completion-timer expiries

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
	breaker  resilience.Breaker // armed iff Options.Resilience is set
	res      *Result
	err      error

	totalCSDWork float64 // kernel+glue work across CSD-assigned records
	doneCSDWork  float64
	lastObserved float64
	csdRecords   int32 // CSD-assigned records: the most progress points Run returns
	lineAttempts int32 // failed attempts of the current record

	att attempt // the current record's open attempt, or its last one

	done    bool
	redoCSD bool // redispatch runs the current record on the CSD, else on the host
	// devRuns counts the device runs of the run's calls still pending:
	// onCallDone adds the issues its call handed to the device, and every
	// device run subtracts one when it ends. Before the run reports it
	// can dip below zero, since a run usually ends before its call's
	// completion lands; once the run has reported every call has settled,
	// so it is exact.
	devRuns int32
	notify  func(error) // invoked exactly once; nil after it fires

	l          *Launcher             // where the executor goes when the run ends; nil under Run
	firstStep  func()                // step, bound once
	redispatch func()                // onRedispatch, bound once
	callRun    csd.Call              // onCallRun, bound once
	callDone   func(nvme.Completion) // onCallDone, bound once
	runs       []*lineRun            // finished line runs; see lineRun
	// lineHist holds the per-line latency histogram of each unit,
	// resolved from Metrics when the unit first completes a line, so a
	// unit that runs nothing registers no histogram.
	lineHist [2]*metrics.Histogram
}

// Launcher launches runs and keeps the executors of finished ones for
// the next launch. Its zero value is ready to use. It is used from the
// goroutine that drives the calendar, like everything a run touches.
//
// A finished run's executor returns to the launcher with its Result,
// its residency table's storage, its line-run pool and its bound
// continuations, and every per-run field zeroed. It keeps nothing a
// caller handed in. It returns once its run has reported and no device
// run of its calls is pending, since such a run calls back into the
// executor (DESIGN.md §11): after the done callback returns, or when
// the last of those device runs ends.
type Launcher struct {
	free []*executor
}

// Launch schedules the replay of trace on p's calendar without driving
// it. The first step lands after the run's one-time overheads; the
// caller owns the calendar and decides when (and with what else
// interleaved) it runs — this is how a workload driver keeps many
// requests in flight on one platform, contending for the same host
// cores, CSEs, flash channels, and link. done, when non-nil, fires
// exactly once from inside the event loop: with nil on success, or with
// the terminal error (typed *resilience.ShedError included) on failure.
// A run the calendar strands (drained while incomplete) never fires
// done. Validation errors surface immediately, schedule nothing and
// take no executor from l.
//
// A launched run reports only its outcome. Its counters still reach
// Options.Metrics, its lines Options.Obs and its progress samples the
// recorder, but no Result leaves it, so it builds no progress timeline:
// Run is the one producer of Result.CSDProgress.
func (l *Launcher) Launch(p *platform.Platform, trace *interp.Trace, opts Options, done func(error)) error {
	_, err := launch(l, p, trace, opts, done)
	return err
}

// Run replays trace on p under opts and returns when the simulated
// program completes. The platform's simulator is advanced in place, so
// sequential runs on one platform accumulate simulated time; Result
// reports the run's own duration. A run the calendar strands returns an
// error naming where it stuck.
func Run(p *platform.Platform, trace *interp.Trace, opts Options) (*Result, error) {
	// No launcher: the Result escapes to the caller, so the executor is
	// never reused.
	e, err := launch(nil, p, trace, opts, nil)
	if err != nil {
		return nil, err
	}
	// Sized before the first step: afterRecord appends a progress point
	// only while the timeline has room, and a launched run's has none.
	if e.csdRecords > 0 {
		e.res.CSDProgress = make([]Progress, 0, e.csdRecords)
	}
	p.Sim.Run()
	switch {
	case e.err != nil:
		return nil, e.err
	case e.done:
		return e.res, nil
	case e.idx < len(trace.Records):
		return nil, fmt.Errorf(
			"exec: simulation drained before the program finished: stuck at record %d/%d (source line %d); "+
				"a lost command with no completion timer strands the run — arm nvme.RetryPolicy completion timers or a resilience.Policy.LineDeadline",
			e.idx, len(trace.Records), trace.Records[e.idx].Line)
	}
	return nil, fmt.Errorf("exec: simulation drained before the program finished (deadlock in the event chain)")
}

// launch validates opts, takes an executor from l and schedules the
// run's first step.
func launch(l *Launcher, p *platform.Platform, trace *interp.Trace, opts Options, done func(error)) (*executor, error) {
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
	if pol := opts.Resilience; pol != nil {
		if err := pol.Validate(); err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
	}
	e := l.get()
	slots := trace.Slots()
	e.p, e.trace, e.opts, e.slots, e.notify = p, trace, opts, slots, done
	// A reused table must start as a fresh one does: every variable
	// unwritten, on the host with no bytes.
	if cap(e.varHome) < slots.Count {
		e.varHome = make([]varState, slots.Count)
	} else {
		e.varHome = e.varHome[:slots.Count]
		clear(e.varHome)
	}
	e.res.Start = p.Sim.Now()
	if pol := opts.Resilience; pol != nil {
		e.breaker = resilience.NewBreaker(pol.Breaker)
	}
	for i := range trace.Records {
		if opts.Partition.OnCSD(trace.Records[i].Line) {
			e.totalCSDWork += recordWork(&trace.Records[i])
			e.csdRecords++
		}
	}
	e.lastObserved = effectiveRate(p)

	overhead := (opts.SamplingOverhead + opts.Backend.CompileOverhead) * opts.overheadScale()
	if opts.Warm {
		overhead = 0
	}
	p.Sim.After(overhead, e.firstStep)
	return e, nil
}

// get takes a finished executor from the free list, or builds one and
// binds its continuations. A nil l, Run's, always builds one.
func (l *Launcher) get() *executor {
	if l != nil {
		if n := len(l.free); n > 0 {
			e := l.free[n-1]
			l.free[n-1] = nil
			l.free = l.free[:n-1]
			return e
		}
	}
	e := &executor{l: l, res: new(Result)}
	e.firstStep, e.redispatch, e.callRun, e.callDone = e.step, e.onRedispatch, e.onCallRun, e.onCallDone
	return e
}

// release returns a launched run's executor to its launcher once the run
// has reported and no device run of its calls is pending. What the
// executor owns survives: its Result (zeroed in place), the residency
// table's storage, the line-run pool and the bound continuations. Every
// other field is zeroed, which drops the trace, options and done
// callback.
func (e *executor) release() {
	l := e.l
	if l == nil || e.devRuns != 0 {
		return
	}
	*e.res = Result{}
	*e = executor{
		l: l, res: e.res, varHome: e.varHome[:0], runs: e.runs,
		firstStep: e.firstStep, redispatch: e.redispatch, callRun: e.callRun, callDone: e.callDone,
	}
	l.free = append(l.free, e)
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
	e.report(nil)
}

// abort terminates the execution with err: no further events are
// scheduled for this run, and the completion callback (if any) fires
// with the error.
func (e *executor) abort(err error) {
	e.err = err
	e.report(err)
}

// report folds the run's Result into the registry, fires the completion
// callback, if any, with the run's outcome, and then releases the
// executor.
func (e *executor) report(err error) {
	e.foldMetrics()
	if fn := e.notify; fn != nil {
		e.notify = nil
		fn(err)
	}
	e.release()
}

// foldMetrics folds the ended run's Result into the registry, whether the
// run completed or ended in an error: a failed request's traffic was on
// the link all the same. Pure observation; with a nil registry every
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
		if e.opts.Resilience != nil {
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
				e.redoCSD = true
				e.relocate(moveBreakerProbe, rec.Line, e.redispatch)
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

// onRedispatch dispatches the current record on the unit redoCSD names.
// It is bound once per executor as redispatch, the continuation of every
// failure-ladder move that dispatches the record again after a delay.
func (e *executor) onRedispatch() {
	unit := UnitHost
	if e.redoCSD {
		unit = UnitCSD
	}
	e.dispatch(unit)
}

// dispatch runs the current record on unit: host lines directly, CSD
// lines through the call queue; failures land in failLine.
func (e *executor) dispatch(unit Unit) {
	e.att = attempt{tag: e.att.tag + 1, open: true, unit: unit, dispatch: e.p.Sim.Now()}
	if unit == UnitHost {
		e.runRecord(e.idx, e.att.tag, UnitHost, nil)
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
	// The call carries its record index and attempt by value: the queue
	// pair may run it again on a re-issue, and a run may start after the
	// host gave up on this attempt.
	e.p.Host.CallDeadline(e.p.Dev, e.callRun, callArg(e.idx, e.att.tag), deadline, e.callDone)
}

// onCallRun is the device side of an offloaded line's call: the CSE has
// picked it up and runs the record the call carried, for the attempt it
// carried. It is bound once per executor as callRun.
func (e *executor) onCallRun(_ *csd.Device, arg int64, done func(uint16, any)) {
	i, tag := splitCallArg(arg)
	// Everything since dispatch was queue traversal.
	if a := &e.att; a.owns(tag) && !a.picked {
		a.picked, a.pickup = true, e.p.Sim.Now()
	}
	e.runRecord(i, tag, UnitCSD, done)
}

// onCallDone is the host side of an offloaded line's call: its completion
// from the queue pair, or the failure the queue pair synthesized. It is
// bound once per executor as callDone. The executor has one call
// outstanding at a time and stays on its record until the call settles,
// so the call is always the current record's.
func (e *executor) onCallDone(c nvme.Completion) {
	e.devRuns += int32(c.Landed)
	e.att.d2hBytes += int64(c.EntryBytes)
	e.res.Timeouts += uint64(c.Timeouts)
	e.res.Retries += uint64(c.Reissues)
	rec := &e.trace.Records[e.idx]
	if c.Status != nvme.StatusOK {
		if c.Status == nvme.StatusDeadline {
			e.res.DeadlineMisses++
		}
		e.failLine(lineFailure{record: e.idx, line: rec.Line, unit: UnitCSD, status: c.Status, value: c.Value})
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
// The rung is chosen first, so the failed attempt closes knowing whether
// it is re-posted, before any rung acts.
func (e *executor) failLine(f lineFailure) {
	unit := f.unit
	if unit == UnitCSD {
		e.res.FailedCalls++
	}
	pol := e.opts.Resilience
	tripped := pol != nil && unit == UnitCSD && e.breaker.OnFailure(e.p.Sim.Now())
	repost := pol != nil && !tripped && int(e.lineAttempts) < pol.LineRetries
	e.close(false, repost)
	switch {
	case pol == nil:
		e.abort(f.err())
	case tripped:
		e.lineAttempts = 0
		e.redoCSD = false
		e.relocate(moveBreakerOpen, f.line, e.redispatch)
	case repost:
		e.lineAttempts++
		delay := pol.Backoff.Delay(uint64(e.idx), int(e.lineAttempts))
		e.redoCSD = unit == UnitCSD
		e.p.Sim.After(delay, e.redispatch)
	case unit == UnitCSD:
		// Rung two: per-line host fallback. Data stays put; the host line
		// pulls device-resident variables lazily, as after a migration.
		e.lineAttempts = 0
		e.dispatch(UnitHost)
	default:
		shed := &resilience.ShedError{Record: f.record, Line: f.line, Attempts: int(e.lineAttempts) + 1, Cause: f.err()}
		e.instant("shed", f.line)
		if m := e.opts.Metrics; m != nil {
			m.Counter(metrics.MetricExecSheds).Add(1)
		}
		e.abort(shed)
	}
}

// lineFailure is why one attempt of a line failed, carried by value. A
// failure is usually retried, falls back or moves the breaker, and then
// nothing reads its text, so only a run that ends on it builds its error.
type lineFailure struct {
	record, line int
	unit         Unit
	status       uint16 // a failed CSD call's NVMe status
	value        any    // a failed CSD call's completion value
	read         error  // a host run's failed data access
}

// err is the error a run that ends on f reports.
func (f *lineFailure) err() error {
	if f.unit == UnitCSD {
		return fmt.Errorf("exec: record %d (line %d): CSD call failed with NVMe status %#x (%v)",
			f.record, f.line, f.status, f.value)
	}
	return fmt.Errorf("exec: record %d (line %d) on %s: %w", f.record, f.line, f.unit, f.read)
}

// afterRecord finalizes the placement of the current record's writes,
// closes its completed attempt, runs the monitor, and advances to the
// next record.
func (e *executor) afterRecord(rec *interp.LineRecord, unit Unit) {
	for k, s := range e.slots.Writes(e.idx) {
		e.varHome[s] = varState{unit: unit, bytes: rec.Writes[k].Bytes}
	}
	e.close(true, false)
	if unit == UnitCSD {
		if e.opts.Resilience != nil && e.breaker.OnSuccess(e.p.Sim.Now()) {
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
		if pr := e.res.CSDProgress; len(pr) < cap(pr) {
			e.res.CSDProgress = append(pr, Progress{Time: e.p.Sim.Now(), Frac: frac})
		}
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
