// Package core is the ActivePy runtime — the paper's primary
// contribution, assembled from the substrates.
//
// Given plain mini-language source with no ISP hints whatsoever, Run:
//
//  1. parses the program,
//  2. executes the sampling phase on four scaled-down inputs and fits
//     complexity curves per line (§III-A, internal/profile + internal/fit),
//  3. prices every line on host and CSD with Equation 1's terms and
//     picks the offload set that minimizes them (§III-B, internal/plan),
//  4. "generates code": selects the native backend, fixes the partition,
//     and pays the compilation overhead (§III-C, internal/codegen),
//  5. executes on the simulated platform with per-line status updates,
//     runtime monitoring, and dynamic task migration (§III-D,
//     internal/exec).
//
// The same entry points also run the comparison configurations the
// paper's evaluation needs (interpreted/Cython/no-ISP/no-migration), so
// every figure harness goes through this package.
package core

import (
	"fmt"

	"activego/internal/analysis"
	"activego/internal/codegen"
	"activego/internal/exec"
	"activego/internal/inputs"
	"activego/internal/lang/ast"
	"activego/internal/lang/interp"
	"activego/internal/lang/parser"
	"activego/internal/lang/value"
	"activego/internal/metrics"
	"activego/internal/obs"
	"activego/internal/par"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/profile"
	"activego/internal/resilience"
)

// SamplingOverhead is the one-time latency of the sampling phase; with
// codegen.Native.CompileOverhead it totals the ~0.1 s the paper reports.
const SamplingOverhead = 0.04

// Config selects runtime features for one execution.
type Config struct {
	// Migration enables the §III-D monitor; the paper's "ActivePy w/o
	// migration" configuration turns it off.
	Migration bool
	// UseCallQueue routes offloaded lines through the NVMe call queue.
	UseCallQueue bool
	// OverheadScale multiplies the one-time overheads (sampling, compile,
	// regeneration); zero means 1. Harnesses running 1/N-scale datasets
	// pass 1/N so overhead-to-runtime ratios match the paper's.
	OverheadScale float64
	// Resilience, when non-nil, arms the full degradation ladder on the
	// offload path (deadlines, backoff re-posts, circuit breaker, typed
	// shed) — see internal/resilience and DESIGN.md §12.
	Resilience *resilience.Policy
	// ObsWindow, when positive, attaches the windowed observability layer
	// (internal/obs, DESIGN.md §15): per-line observed costs are binned
	// into ObsWindow-second sim-time windows, scored for drift against
	// the fitted model after the run (AV012 advisories + obs.drift.*
	// metrics), and folded into Metrics as obs.win.* entries. Zero (the
	// default) is the inert state — the run is bit-identical without it.
	ObsWindow float64
}

// DefaultConfig is the full-fledged ActivePy runtime.
func DefaultConfig() Config {
	return Config{Migration: true, UseCallQueue: true}
}

// Outcome bundles everything one ActivePy execution produced.
type Outcome struct {
	Program  *ast.Program
	Analysis *analysis.Report
	Profile  *profile.Report
	Plan     *plan.Result
	Trace    *interp.Trace
	Env      *interp.Env
	Outputs  map[string]value.Value
	Exec     *exec.Result

	// Advisories are the dynamic-input static-analysis findings: AV009
	// (fitted execution counts contradicting the proved static bounds),
	// AV011 (offloads pruned because they provably cannot win), and — on
	// windowed runs — AV012 (observed costs persistently diverging from
	// the fitted model). Purely informational — the plan above already
	// reflects them.
	Advisories []analysis.Diagnostic

	// Obs is the windowed cost collector, populated only when
	// Config.ObsWindow was positive; nil otherwise. Drift is its scored
	// comparison against the plan's fitted costs (DESIGN.md §15).
	Obs   *obs.Collector
	Drift *obs.DriftReport
}

// PlannerChoices is the -planner flag's vocabulary (DESIGN.md §16): the
// exact branch-and-bound planner (the default) and the paper's
// Algorithm 1 with its literal-pseudocode ablation.
const PlannerChoices = "bnb | algorithm1 | algorithm1-literal"

// Runtime is an ActivePy instance bound to one platform.
type Runtime struct {
	Plat    *platform.Platform
	Machine plan.Machine
	// SampleScales overrides the sampling phase's scale factors; nil uses
	// profile.Scales (the paper's 2^-10…2^-7). Harnesses running
	// pre-scaled instances pass profile.ScaledScales.
	SampleScales []float64
	// Metrics, when set, self-instruments the pipeline: each stage's
	// wall-clock cost lands in the registry's phase histograms and the
	// executor folds its run counters in. Nil (the default) records
	// nothing — runs stay bit-identical either way, because metrics only
	// observe real time, never simulated decisions.
	Metrics *metrics.Registry
	// Pool, when set, fans the sampling runs out across workers (the -j
	// flag). Nil runs serially; either way the pipeline's output is
	// bit-identical — par.Map merges by input position.
	Pool *par.Pool
	// Planner selects the planning algorithm (one of PlannerChoices; ""
	// means bnb): the exact branch-and-bound search of DESIGN.md §16,
	// which degrades to Algorithm 1 only on a node-budget blowout.
	Planner string
	// PlanBudget overrides the branch-and-bound node budget
	// (0 = plan.DefaultBnBNodeBudget).
	PlanBudget int
}

// New builds a runtime on p, measuring the platform's slowdown constant C
// with the calibration microbenchmark.
func New(p *platform.Platform) *Runtime {
	return &Runtime{Plat: p, Machine: plan.MachineFromPlatform(p)}
}

// PreloadInputs places every registry object into the CSD's object store
// (datasets exist on the device before the experiment, as in §IV-B).
func (rt *Runtime) PreloadInputs(reg *inputs.Registry) {
	for _, name := range reg.Names() {
		e, _ := reg.Get(name)
		rt.Plat.Dev.Store.Preload(name, e.Value.SizeBytes())
	}
}

// Analyze runs steps 1–3: parse, sample, and plan, without executing at
// full scale. Examples and the accuracy experiment use it directly.
func (rt *Runtime) Analyze(src string, reg *inputs.Registry) (*ast.Program, *profile.Report, *plan.Result, error) {
	a, err := rt.analyzeAll(src, reg)
	if err != nil {
		return nil, nil, nil, err
	}
	return a.prog, a.report, a.plan, nil
}

// analyzed bundles everything the front half of the pipeline produced.
type analyzed struct {
	prog       *ast.Program
	static     *analysis.Report
	report     *profile.Report
	plan       *plan.Result
	advisories []analysis.Diagnostic
}

// analyzeAll is Analyze plus the static-analysis report: parse, analyze,
// sample, and plan with illegal lines masked from the planner.
func (rt *Runtime) analyzeAll(src string, reg *inputs.Registry) (*analyzed, error) {
	stop := rt.Metrics.Phase(metrics.PhaseParse)
	prog, err := parser.Parse(src)
	stop()
	if err != nil {
		return nil, fmt.Errorf("core: parse: %w", err)
	}
	stop = rt.Metrics.Phase(metrics.PhaseAnalyze)
	static, err := analysis.Analyze(prog)
	stop()
	if err != nil {
		return nil, fmt.Errorf("core: static analysis: %w", err)
	}
	scales := rt.SampleScales
	if scales == nil {
		scales = profile.Scales
	}
	report, err := profile.RunScalesPool(prog, reg, scales, rt.Metrics, rt.Pool)
	if err != nil {
		return nil, fmt.Errorf("core: sampling phase: %w", err)
	}
	stop = rt.Metrics.Phase(metrics.PhasePlan)
	estimates := plan.BuildEstimates(report.Predictions(), rt.Machine, codegen.Native)
	cons := plan.Constraints{HostOnly: static.HostPinned()}
	advisories, pruned := adviseEstimates(static, report, estimates, rt.Machine, cons.HostOnly)
	planRes, stats, err := rt.runPlanner(estimates, cons)
	if err != nil {
		stop()
		return nil, err
	}
	planRes.Provenance = plan.BuildProvenance(planRes, cons, pruned, rt.Machine)
	stop()
	if planRes.Planner == plan.PlannerAlgorithm1 && !greedyRequested(rt.Planner) {
		// A genuine fallback: the exact planner was asked for but
		// branch-and-bound blew its node budget and degraded to the
		// greedy walk (the static AV008 vet note warns when a program's
		// dependence structure makes this possible).
		rt.Metrics.Counter(metrics.MetricPlanOptimalFallback).Add(1)
	}
	if stats.Nodes > 0 {
		rt.Metrics.Counter(metrics.MetricPlanBnBNodes).Add(float64(stats.Nodes))
		rt.Metrics.Counter(metrics.MetricPlanBnBCuts).Add(float64(stats.BoundCuts + stats.NeverWinCuts))
		rt.Metrics.Gauge(metrics.MetricPlanBnBBudget).Set(float64(stats.Budget))
	}
	if n := prunedCount(advisories); n > 0 {
		rt.Metrics.Counter(metrics.MetricPlanPrunedLines).Add(float64(n))
	}
	return &analyzed{prog: prog, static: static, report: report, plan: planRes, advisories: advisories}, nil
}

// runPlanner dispatches to the configured planning algorithm. The
// returned stats are zero-valued unless the branch-and-bound search ran.
func (rt *Runtime) runPlanner(estimates []plan.LineEstimate, cons plan.Constraints) (*plan.Result, plan.BnBStats, error) {
	var stats plan.BnBStats
	budget := rt.PlanBudget
	if budget <= 0 {
		budget = plan.DefaultBnBNodeBudget
	}
	switch rt.Planner {
	case "", plan.PlannerBnB:
		return plan.BnBBudget(estimates, cons, rt.Machine, budget, &stats), stats, nil
	case plan.PlannerAlgorithm1:
		return plan.Algorithm1(estimates, cons, rt.Machine), stats, nil
	case plan.PlannerAlgorithm1Literal:
		return plan.Algorithm1Literal(estimates, cons, rt.Machine), stats, nil
	default:
		return nil, stats, fmt.Errorf("core: unknown planner %q (choices: %s)", rt.Planner, PlannerChoices)
	}
}

// greedyRequested reports whether the caller explicitly asked for the
// greedy walk — in which case an Algorithm 1 plan is the requested
// behavior, not a fallback.
func greedyRequested(planner string) bool {
	return planner == plan.PlannerAlgorithm1 || planner == plan.PlannerAlgorithm1Literal
}

// adviseEstimates runs the dynamic-input analysis passes over the
// sampled estimates: the AV009 cross-check of fitted execution counts
// against the proved static bounds, and the AV011 never-win proof —
// whose lines it also pins into hostOnly (in place), so the planner
// never considers offloading them. Pinning a never-win line provably
// preserves the plan (see plan.NeverWin). The
// full pruned list is returned alongside the advisories so provenance
// can record margins even for lines legality had already pinned.
func adviseEstimates(static *analysis.Report, report *profile.Report, estimates []plan.LineEstimate, m plan.Machine, hostOnly map[int]string) ([]analysis.Diagnostic, []plan.PrunedLine) {
	var ms []analysis.Measured
	for _, p := range report.Predictions() {
		ms = append(ms, analysis.Measured{Line: p.Line, Execs: p.Execs})
	}
	advisories := static.CheckMeasured(ms)
	pruned := plan.NeverWin(estimates, m)
	for _, pr := range pruned {
		if _, already := hostOnly[pr.Line]; already {
			continue
		}
		hostOnly[pr.Line] = pr.Reason
		advisories = append(advisories, analysis.Diagnostic{
			Line: pr.Line, Code: analysis.CodeNeverWin, Severity: analysis.SevWarning,
			Msg: pr.Reason,
		})
	}
	return advisories, pruned
}

// prunedCount counts the AV011 findings in an advisory set.
func prunedCount(advisories []analysis.Diagnostic) int {
	n := 0
	for _, d := range advisories {
		if d.Code == analysis.CodeNeverWin {
			n++
		}
	}
	return n
}

// Vet runs steps 1–3 and returns the full diagnostic stream: the static
// lint catalogue (AV001–AV008, AV010) plus the dynamic-input advisories
// the sampling phase unlocks (AV009 bound-vs-fit contradictions, AV011
// never-win offloads). `activego vet -workloads` uses it so workload
// linting sees everything the real pipeline would.
func (rt *Runtime) Vet(src string, reg *inputs.Registry) ([]analysis.Diagnostic, error) {
	a, err := rt.analyzeAll(src, reg)
	if err != nil {
		return nil, err
	}
	diags := a.static.Lint()
	diags = append(diags, a.advisories...)
	analysis.Sort(diags)
	return diags, nil
}

// Run executes src over reg with the full ActivePy pipeline.
func (rt *Runtime) Run(src string, reg *inputs.Registry, cfg Config) (*Outcome, error) {
	a, err := rt.analyzeAll(src, reg)
	if err != nil {
		return nil, err
	}
	out, err := rt.execute(a.prog, a.static, a.report, a.plan, reg, cfg)
	if err != nil {
		return nil, err
	}
	out.Advisories = append(a.advisories, out.Drift.Advisories()...)
	return out, nil
}

// RunWithPartition executes src with an externally chosen partition (the
// programmer-directed configurations) under the given backend; no
// sampling phase is charged, matching a statically compiled program.
// overheadScale scales the backend's compile overhead (pass 1 at paper
// scale, 1/N for 1/N-scale datasets; 0 means 1).
func (rt *Runtime) RunWithPartition(src string, reg *inputs.Registry, part codegen.Partition, backend codegen.Backend, overheadScale float64) (*Outcome, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: parse: %w", err)
	}
	// Programmer-directed partitions get the same legality gate as the
	// planner's: the analysis report travels into exec, which refuses
	// illegal offloads before any simulated work happens.
	static, err := analysis.Analyze(prog)
	if err != nil {
		return nil, fmt.Errorf("core: static analysis: %w", err)
	}
	trace, env, err := rt.traceRun(prog, reg)
	if err != nil {
		return nil, err
	}
	stop := rt.Metrics.Phase(metrics.PhaseExecute)
	res, err := exec.Run(rt.Plat, trace.trace, exec.Options{
		Backend:       backend,
		Partition:     part,
		OverheadScale: overheadScale,
		UseCallQueue:  !part.Empty(),
		Analysis:      static,
		Metrics:       rt.Metrics,
	})
	stop()
	if err != nil {
		return nil, err
	}
	return &Outcome{Program: prog, Analysis: static, Trace: trace.trace, Env: env, Outputs: trace.outputs, Exec: res}, nil
}

type traced struct {
	trace   *interp.Trace
	outputs map[string]value.Value
}

func (rt *Runtime) traceRun(prog *ast.Program, reg *inputs.Registry) (*traced, *interp.Env, error) {
	stop := rt.Metrics.Phase(metrics.PhaseTrace)
	defer stop()
	ctx := reg.Context(1)
	trace, env, err := interp.Run(prog, ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("core: full-scale run: %w", err)
	}
	return &traced{trace: trace, outputs: ctx.Outputs}, env, nil
}

func (rt *Runtime) execute(prog *ast.Program, static *analysis.Report, report *profile.Report, planRes *plan.Result, reg *inputs.Registry, cfg Config) (*Outcome, error) {
	trace, env, err := rt.traceRun(prog, reg)
	if err != nil {
		return nil, err
	}
	mig := exec.MigrationPolicy{}
	if cfg.Migration {
		mig = exec.DefaultMigration()
	}
	col := obs.NewCollector(cfg.ObsWindow, 0)
	stop := rt.Metrics.Phase(metrics.PhaseExecute)
	res, err := exec.Run(rt.Plat, trace.trace, exec.Options{
		Backend:          codegen.Native,
		Partition:        planRes.Partition,
		Estimates:        planRes.ByLine(),
		Migration:        mig,
		SamplingOverhead: SamplingOverhead,
		OverheadScale:    cfg.OverheadScale,
		UseCallQueue:     cfg.UseCallQueue,
		Analysis:         static,
		Resilience:       cfg.Resilience,
		Metrics:          rt.Metrics,
		Obs:              col,
	})
	stop()
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Program:  prog,
		Analysis: static,
		Profile:  report,
		Plan:     planRes,
		Trace:    trace.trace,
		Env:      env,
		Outputs:  trace.outputs,
		Exec:     res,
	}
	if col != nil {
		// Score the windowed observations against the plan's fitted costs
		// and bill both layers; a stale line becomes an AV012 advisory in
		// Run. All of this happens after the simulated run finished — obs
		// observes, it never feeds a decision.
		out.Obs = col
		out.Drift = obs.ScoreDrift(col, obs.PlannedCosts(planRes, rt.Machine), obs.DefaultDriftConfig())
		col.Windows().Fold(rt.Metrics)
		out.Drift.Fold(rt.Metrics)
	}
	return out, nil
}
