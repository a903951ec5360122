package metrics

import "strings"

// Canonical sampled-series names: every time series the instrumented
// stack records on a trace.Recorder. A series' component lane is the
// first dot-separated segment of its name. DESIGN.md §9's table is
// generated from the series rows of Catalogue below — a docs test
// enforces that the two never drift.
const (
	// SeriesNVMeSQDepth is the number of device-owned commands in the
	// NVMe hardware submission queue (<= queue depth).
	SeriesNVMeSQDepth = "nvme.sq.depth"
	// SeriesNVMeSoftQueue is the host software queue behind a full SQ.
	SeriesNVMeSoftQueue = "nvme.sq.software"
	// SeriesNVMeCQInFlight is the number of completion entries crossing
	// back over the link (handed to the wire, not yet landed).
	SeriesNVMeCQInFlight = "nvme.cq.inflight"
	// SeriesFlashBusyChannels is the number of flash channels whose
	// wire-free horizon lies in the future.
	SeriesFlashBusyChannels = "flash.busy_channels"
	// SeriesCSEBusyCores is the number of busy CSE cores.
	SeriesCSEBusyCores = "cse.busy_cores"
	// SeriesCSEQueue is the number of jobs queued for a CSE core.
	SeriesCSEQueue = "cse.queue_depth"
	// SeriesHostBusyCores is the number of busy host CPU cores.
	SeriesHostBusyCores = "hostcpu.busy_cores"
	// SeriesHostQueue is the number of jobs queued for a host core.
	SeriesHostQueue = "hostcpu.queue_depth"
	// SeriesD2HInFlight is the bytes handed to the external host<->CSD
	// link and not yet landed.
	SeriesD2HInFlight = "d2h.bytes_inflight"
	// SeriesHostMemInFlight is the same quantity for the host DRAM bus.
	SeriesHostMemInFlight = "hostmem.bytes_inflight"
	// SeriesDevMemInFlight is the same quantity for the device DRAM bus.
	SeriesDevMemInFlight = "devmem.bytes_inflight"
	// SeriesCSDStatusMsgs is the cumulative count of §III-C-b status
	// update messages the device has emitted.
	SeriesCSDStatusMsgs = "csd.status_msgs"
	// SeriesExecProgress is the fraction of CSD-assigned work completed.
	SeriesExecProgress = "exec.csd_progress"
	// SeriesExecBreakerState is the offload circuit breaker's position,
	// sampled at each transition: 0 closed, 0.5 half-open, 1 open.
	SeriesExecBreakerState = "exec.breaker_state"
	// SeriesDriverInFlight is the number of serving-driver requests in
	// service (admitted, not yet completed).
	SeriesDriverInFlight = "driver.inflight"
	// SeriesDriverQueueDepth is the number of serving-driver requests
	// waiting in the admission queue.
	SeriesDriverQueueDepth = "driver.queue_depth"
)

// Canonical metric names emitted by the instrumented framework (beyond
// the phase timers in phase.go). DESIGN.md §10's table is generated
// from the non-series rows of Catalogue below — a docs test enforces
// that the two never drift.
const (
	// MetricExecRuns counts completed executor runs folded into the
	// registry.
	MetricExecRuns = "exec.runs"
	// MetricExecLinesCSD / MetricExecLinesHost count dynamic line
	// executions by unit.
	MetricExecLinesCSD  = "exec.lines.csd"
	MetricExecLinesHost = "exec.lines.host"
	// MetricExecMigrations counts §III-D monitor migrations.
	MetricExecMigrations = "exec.migrations"
	// MetricExecRetries counts NVMe command re-issues plus exec-level
	// line re-posts.
	MetricExecRetries = "exec.retries"
	// MetricExecFailedCalls counts offloaded invocations that returned a
	// non-OK status.
	MetricExecFailedCalls = "exec.failed_calls"
	// MetricExecTimeouts counts NVMe completion-timer expiries.
	MetricExecTimeouts = "exec.timeouts"
	// MetricExecStatusMsgs counts §III-C-b status updates.
	MetricExecStatusMsgs = "exec.status_msgs"
	// MetricExecD2HBytes accumulates external-link bytes moved.
	MetricExecD2HBytes = "exec.d2h.bytes"
	// MetricExecLineCSD / MetricExecLineHost are per-line simulated
	// latency distributions by unit.
	MetricExecLineCSD  = "exec.line.csd.seconds"
	MetricExecLineHost = "exec.line.host.seconds"

	// Resilience-ladder counters, folded only when Options.Resilience is
	// armed (the ladder is strictly opt-in).
	//
	// MetricExecBreakerOpens / MetricExecBreakerCloses count circuit
	// breaker transitions to open (offload suspended) and back to closed
	// (a half-open probe succeeded and offload was re-admitted).
	MetricExecBreakerOpens  = "exec.breaker.opens"
	MetricExecBreakerCloses = "exec.breaker.closes"
	// MetricExecDegradedLines counts partition lines executed on the host
	// because the breaker was open.
	MetricExecDegradedLines = "exec.degraded_lines"
	// MetricExecDeadlineMisses counts offloaded calls abandoned at their
	// per-line deadline.
	MetricExecDeadlineMisses = "exec.deadline_misses"
	// MetricExecSheds counts runs ended by a typed shed error — the
	// degradation ladder's final rung.
	MetricExecSheds = "exec.sheds"

	// Serving-driver counters, folded per tenant into the driver's
	// sub-registries and merged into the caller's registry in tenant
	// order (internal/driver, DESIGN.md §14).
	//
	// MetricDriverOffered counts requests the arrival processes
	// generated (admitted or not).
	MetricDriverOffered = "driver.requests.offered"
	// MetricDriverAdmitted counts requests dispatched into service
	// (immediately or after waiting in the admission queue).
	MetricDriverAdmitted = "driver.requests.admitted"
	// MetricDriverQueued counts requests that waited in the admission
	// queue before dispatch.
	MetricDriverQueued = "driver.requests.queued"
	// MetricDriverShed counts requests refused at admission with a typed
	// *resilience.AdmitError (in-flight budget and wait queue both full).
	MetricDriverShed = "driver.requests.shed"
	// MetricDriverCompleted counts requests that finished successfully.
	MetricDriverCompleted = "driver.requests.completed"
	// MetricDriverFailed counts requests that ended in a typed clean
	// failure (*resilience.ShedError from the degradation ladder).
	MetricDriverFailed = "driver.requests.failed"
	// MetricDriverLatency is the arrival-to-completion latency
	// distribution; MetricDriverWait is arrival-to-dispatch (admission
	// queueing); MetricDriverService is dispatch-to-completion.
	MetricDriverLatency = "driver.request.latency.seconds"
	MetricDriverWait    = "driver.request.wait.seconds"
	MetricDriverService = "driver.request.service.seconds"

	// Observability-layer metrics (internal/obs, DESIGN.md §15). The
	// windowed time-series family is generated by scheme (ObsWindowPrefix
	// below); these are the fixed drift-scoring entries.
	//
	// MetricObsWindows is the number of closed observation windows folded
	// into the registry.
	MetricObsWindows = "obs.windows"
	// MetricObsDriftChecks counts per-line per-window comparisons of
	// observed cost against the fitted model.
	MetricObsDriftChecks = "obs.drift.checks"
	// MetricObsDriftDiverged counts comparisons whose relative error
	// exceeded the (widening) tolerance.
	MetricObsDriftDiverged = "obs.drift.diverged"
	// MetricObsDriftStaleLines counts lines flagged model-stale: observed
	// cost diverged for K consecutive windows.
	MetricObsDriftStaleLines = "obs.drift.stale_lines"
	// MetricObsDriftMaxRatio is the worst observed/planned cost ratio
	// across all scored lines.
	MetricObsDriftMaxRatio = "obs.drift.max_ratio"

	// MetricPlanOptimalFallback counts pipeline runs where an exact
	// planner was requested but planning genuinely degraded to the
	// greedy Algorithm 1 — under auto, a branch-and-bound node-budget
	// blowout (the static AV008 vet note warns when this is possible).
	MetricPlanOptimalFallback = "plan.optimal.fallback"

	// MetricPlanPrunedLines counts lines the AV011 never-win proof
	// pinned to the host in plan.Plan, before any planner ran; lines
	// legality had already pinned are not counted.
	MetricPlanPrunedLines = "plan.pruned_lines"

	// Branch-and-bound planner statistics (DESIGN.md §16), folded only
	// when the search actually ran.
	//
	// MetricPlanBnBNodes counts side-assignment nodes the search
	// expanded; MetricPlanBnBCuts counts subtrees the admissible lower
	// bound cut; MetricPlanBnBBudget is the node budget the search ran
	// under.
	MetricPlanBnBNodes  = "plan.bnb.nodes"
	MetricPlanBnBCuts   = "plan.bnb.cuts"
	MetricPlanBnBBudget = "plan.bnb.budget"

	// Machine-level gauges folded by platform.FoldMetrics.
	MetricSimEvents     = "machine.sim.events"
	MetricCSERetired    = "machine.cse.retired_units"
	MetricCSERate       = "machine.cse.rate"
	MetricFlashReads    = "machine.flash.reads"
	MetricFlashPrograms = "machine.flash.programs"
	MetricFlashErases   = "machine.flash.erases"
	MetricFTLGCRuns     = "machine.ftl.gc_runs"
	MetricFTLPagesMoved = "machine.ftl.pages_moved"
	MetricFTLFreeBlocks = "machine.ftl.free_blocks"
	MetricNVMeSubmitted = "machine.nvme.submitted"
	MetricNVMeCompleted = "machine.nvme.completed"
)

// Kinds of instrument a metric can be. The first three are registry
// instruments; a series is sampled on a trace.Recorder and reaches the
// registry only through Recorder.Fold.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
	KindSeries    = "series"
)

// MetricInfo describes one catalogued metric.
type MetricInfo struct {
	Name string
	Kind string // counter | gauge | histogram | series
	Unit string
	// Source says where in the framework the metric is recorded; for a
	// series, the model event its samples are taken at.
	Source string
}

// Suffixes of the gauges Recorder.Fold derives from each catalogued
// series (time-weighted statistics under the series' step semantics).
const (
	TraceMin  = ".min"
	TraceMean = ".mean"
	TraceMax  = ".max"
)

// SpanPrefix and SpanSuffix frame the per-component span-latency
// histograms Recorder.Fold emits: span.<component>.seconds, with one
// observation per recorded span.
const (
	SpanPrefix = "span."
	SpanSuffix = ".seconds"
)

// Catalogue returns the full catalogue of observed names — the source
// of truth for DESIGN.md §9's series table and §10's metric table, and
// for the docs tests that pin docs to code. The scheme-generated
// families (three gauges per series, one span.<component>.seconds
// histogram per component lane, the obs.win.* windows) are checked by
// Catalogued, not listed row by row.
func Catalogue() []MetricInfo {
	return []MetricInfo{
		{SeriesNVMeSQDepth, KindSeries, "commands", "queue pair issue/settle"},
		{SeriesNVMeSoftQueue, KindSeries, "commands", "software-queue push/pop"},
		{SeriesNVMeCQInFlight, KindSeries, "completions", "CQE handed to / landed from the link"},
		{SeriesFlashBusyChannels, KindSeries, "channels", "array op issue and completion"},
		{SeriesCSEBusyCores, KindSeries, "cores", "job start/finish on the CSE resource"},
		{SeriesCSEQueue, KindSeries, "jobs", "job enqueue/dequeue on the CSE resource"},
		{SeriesHostBusyCores, KindSeries, "cores", "job start/finish on the host CPU"},
		{SeriesHostQueue, KindSeries, "jobs", "job enqueue/dequeue on the host CPU"},
		{SeriesD2HInFlight, KindSeries, "bytes", "link transfer issue and landing"},
		{SeriesHostMemInFlight, KindSeries, "bytes", "link transfer issue and landing"},
		{SeriesDevMemInFlight, KindSeries, "bytes", "link transfer issue and landing"},
		{SeriesCSDStatusMsgs, KindSeries, "messages", "Device.SendStatus"},
		{SeriesExecProgress, KindSeries, "fraction", "after each completed CSD line"},
		{SeriesExecBreakerState, KindSeries, "state", "breaker open/probe/close transitions"},
		{SeriesDriverInFlight, KindSeries, "requests", "request dispatch and completion"},
		{SeriesDriverQueueDepth, KindSeries, "requests", "admission-queue push/pop"},

		{PhaseParse, KindHistogram, "seconds", "wall clock of mini-language parsing"},
		{PhaseAnalyze, KindHistogram, "seconds", "wall clock of static analysis"},
		{PhaseSample, KindHistogram, "seconds", "wall clock of the §III-A sampling runs"},
		{PhaseFit, KindHistogram, "seconds", "wall clock of §III-A curve fitting"},
		{PhasePlan, KindHistogram, "seconds", "wall clock of §III-B planning"},
		{PhaseTrace, KindHistogram, "seconds", "wall clock of the full-scale value trace"},
		{PhaseExecute, KindHistogram, "seconds", "wall clock of the simulated replay"},

		{MetricExecRuns, KindCounter, "runs", "exec.Run completion"},
		{MetricExecLinesCSD, KindCounter, "lines", "completed CSD line executions"},
		{MetricExecLinesHost, KindCounter, "lines", "completed host line executions"},
		{MetricExecMigrations, KindCounter, "migrations", "§III-D monitor migration"},
		{MetricExecRetries, KindCounter, "retries", "NVMe re-issues + line re-posts"},
		{MetricExecFailedCalls, KindCounter, "calls", "non-OK offloaded completions"},
		{MetricExecTimeouts, KindCounter, "timeouts", "NVMe completion-timer expiries"},
		{MetricExecStatusMsgs, KindCounter, "messages", "§III-C-b status updates"},
		{MetricExecD2HBytes, KindCounter, "bytes", "external-link traffic per run"},
		{MetricExecLineCSD, KindHistogram, "seconds", "simulated per-line latency on the CSD"},
		{MetricExecLineHost, KindHistogram, "seconds", "simulated per-line latency on the host"},
		{MetricExecBreakerOpens, KindCounter, "transitions", "circuit breaker opened (offload suspended)"},
		{MetricExecBreakerCloses, KindCounter, "transitions", "probe succeeded, offload re-admitted"},
		{MetricExecDegradedLines, KindCounter, "lines", "partition lines run on host, breaker open"},
		{MetricExecDeadlineMisses, KindCounter, "calls", "offloaded calls past their line deadline"},
		{MetricExecSheds, KindCounter, "runs", "runs ended by a typed shed error"},
		{MetricDriverOffered, KindCounter, "requests", "driver: arrival generated"},
		{MetricDriverAdmitted, KindCounter, "requests", "driver: dispatched into service"},
		{MetricDriverQueued, KindCounter, "requests", "driver: waited in the admission queue"},
		{MetricDriverShed, KindCounter, "requests", "driver: refused with *resilience.AdmitError"},
		{MetricDriverCompleted, KindCounter, "requests", "driver: request completed"},
		{MetricDriverFailed, KindCounter, "requests", "driver: typed clean failure"},
		{MetricDriverLatency, KindHistogram, "seconds", "driver: arrival to completion"},
		{MetricDriverWait, KindHistogram, "seconds", "driver: arrival to dispatch"},
		{MetricDriverService, KindHistogram, "seconds", "driver: dispatch to completion"},
		{MetricObsWindows, KindGauge, "windows", "obs: closed observation windows folded"},
		{MetricObsDriftChecks, KindCounter, "checks", "obs: per-line per-window model comparisons"},
		{MetricObsDriftDiverged, KindCounter, "checks", "obs: comparisons beyond the widening tolerance"},
		{MetricObsDriftStaleLines, KindCounter, "lines", "obs: lines model-stale for K consecutive windows"},
		{MetricObsDriftMaxRatio, KindGauge, "ratio", "obs: worst observed/planned cost ratio"},
		{MetricPlanOptimalFallback, KindCounter, "plans", "core: exact planning degraded to Algorithm 1"},
		{MetricPlanPrunedLines, KindCounter, "lines", "core: AV011 never-win lines plan.Plan pinned to the host"},
		{MetricPlanBnBNodes, KindCounter, "nodes", "core: branch-and-bound nodes expanded"},
		{MetricPlanBnBCuts, KindCounter, "subtrees", "core: branch-and-bound subtrees cut by the lower bound"},
		{MetricPlanBnBBudget, KindGauge, "nodes", "core: branch-and-bound node budget in force"},

		{MetricSimEvents, KindGauge, "events", "platform.FoldMetrics: events fired"},
		{MetricCSERetired, KindGauge, "units", "platform.FoldMetrics: CSE work retired"},
		{MetricCSERate, KindGauge, "units/s", "platform.FoldMetrics: effective CSE rate"},
		{MetricFlashReads, KindGauge, "ops", "platform.FoldMetrics: array reads"},
		{MetricFlashPrograms, KindGauge, "ops", "platform.FoldMetrics: array programs"},
		{MetricFlashErases, KindGauge, "ops", "platform.FoldMetrics: array erases"},
		{MetricFTLGCRuns, KindGauge, "runs", "platform.FoldMetrics: FTL GC runs"},
		{MetricFTLPagesMoved, KindGauge, "pages", "platform.FoldMetrics: GC page moves"},
		{MetricFTLFreeBlocks, KindGauge, "blocks", "platform.FoldMetrics: free blocks"},
		{MetricNVMeSubmitted, KindGauge, "commands", "platform.FoldMetrics: SQEs submitted"},
		{MetricNVMeCompleted, KindGauge, "commands", "platform.FoldMetrics: CQEs completed"},
	}
}

// Lookup returns the catalogue row named name.
func Lookup(name string) (MetricInfo, bool) {
	m, ok := byName[name]
	return m, ok
}

var byName = func() map[string]MetricInfo {
	m := make(map[string]MetricInfo)
	for _, info := range Catalogue() {
		m[info.Name] = info
	}
	return m
}()

// ObsWindowPrefix opens the windowed time-series family (internal/obs,
// DESIGN.md §15): obs.win.<window>.<series>.<stat>, where <window> is a
// zero-padded decimal window index (so the name-sorted snapshot reads in
// window order), <series> is the observed series (e.g. line7.csd.seconds,
// t0.latency.seconds), and <stat> is count/sum/p50/p95/p99. Like the
// span.<component>.seconds family, these are validated by scheme rather
// than listed row by row.
const ObsWindowPrefix = "obs.win."

// Catalogued reports whether name is a catalogued metric: either an
// exact entry of Catalogue, one of the three series gauges
// (<catalogued series>.min/.mean/.max), a component span histogram
// (span.<component>.seconds), or a windowed time-series entry
// (obs.win.<window>.<series>.<stat>).
func Catalogued(name string) bool {
	if _, ok := byName[name]; ok {
		return true
	}
	for _, suffix := range []string{TraceMin, TraceMean, TraceMax} {
		if base, ok := strings.CutSuffix(name, suffix); ok && byName[base].Kind == KindSeries {
			return true
		}
	}
	if comp, ok := strings.CutSuffix(strings.TrimPrefix(name, SpanPrefix), SpanSuffix); ok &&
		strings.HasPrefix(name, SpanPrefix) && comp != "" && !strings.Contains(comp, ".") {
		return true
	}
	if rest, ok := strings.CutPrefix(name, ObsWindowPrefix); ok {
		i := 0
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
		}
		// At least one window digit, a separating dot, and a non-empty
		// series.stat tail.
		if i > 0 && i+1 < len(rest) && rest[i] == '.' {
			return true
		}
	}
	return false
}
