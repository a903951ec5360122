// Package core is the ActivePy runtime — the paper's primary
// contribution, assembled from the substrates.
//
// Given plain mini-language source with no ISP hints whatsoever, the
// runtime:
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
// Prepare runs steps 1–3 and the full-scale trace once and returns a
// read-only Prepared program; Prepared.Run executes steps 4–5 on any
// platform, as often as a caller likes. Run is the two back to back.
// Every figure harness prepares its programs here (the experiments'
// Workbench embeds a Prepared) and runs ActivePy through Prepared.Run;
// the comparison configurations (no-ISP, static C ISP,
// interpreted/Cython) replay the same prepared trace through
// internal/baseline and internal/exec.
package core

import (
	"fmt"
	"slices"

	"activego/internal/analysis"
	"activego/internal/codegen"
	"activego/internal/exec"
	"activego/internal/inputs"
	"activego/internal/lang/ast"
	"activego/internal/lang/interp"
	"activego/internal/lang/parser"
	"activego/internal/metrics"
	"activego/internal/obs"
	"activego/internal/par"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/profile"
	"activego/internal/resilience"
	"activego/internal/workloads"
)

// SamplingOverhead is the one-time latency of the sampling phase; with
// codegen.Native.CompileOverhead it totals the ~0.1 s the paper reports.
const SamplingOverhead = 0.04

// Config selects runtime features for one execution.
type Config struct {
	// Migration enables the §III-D monitor; the paper's "ActivePy w/o
	// migration" configuration turns it off.
	Migration bool
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
	return Config{Migration: true}
}

// Prepared is one program taken once through the front half of the
// pipeline: parsed, analyzed, sampled and fitted, planned with
// provenance, and traced at full scale. It is read-only once Prepare
// returns, so any number of runs — on any number of platforms, from any
// number of goroutines — may share it.
type Prepared struct {
	Program  *ast.Program
	Analysis *analysis.Report
	Profile  *profile.Report
	Plan     *plan.Result
	// Estimates is Plan.ByLine(), built once: every run's migration
	// monitor and every warm replay reads it.
	Estimates map[int]*plan.LineEstimate
	// Machine is the platform model the plan was priced on.
	Machine plan.Machine

	// Advisories are the dynamic-input static-analysis findings: AV009
	// (fitted execution counts contradicting the proved static bounds)
	// and AV011 (offloads pruned because they provably cannot win).
	// Purely informational — the plan above already reflects them.
	Advisories []analysis.Diagnostic

	Trace *interp.Trace
	Env   *interp.Env
}

// Outcome bundles everything one ActivePy execution produced: the
// prepared program it ran and the run itself.
type Outcome struct {
	*Prepared
	Exec *exec.Result

	// Advisories are the prepared program's advisories plus, on windowed
	// runs, AV012 (observed costs persistently diverging from the fitted
	// model).
	Advisories []analysis.Diagnostic

	// Obs is the windowed cost collector, populated only when
	// Config.ObsWindow was positive; nil otherwise. Drift is its scored
	// comparison against the plan's fitted costs (DESIGN.md §15).
	Obs   *obs.Collector
	Drift *obs.DriftReport
}

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
	// Planner selects the planning algorithm (one of plan.PlannerChoices;
	// "" means bnb): the exact branch-and-bound search of DESIGN.md §16,
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

// ForWorkload builds the runtime every harness prepares an embedded
// workload with: a fresh default platform holding inst's inputs, and
// sampling at profile.ScaledScales because instances are pre-scaled.
func ForWorkload(inst *workloads.Instance) *Runtime {
	rt := New(platform.Default())
	rt.SampleScales = profile.ScaledScales
	rt.PreloadInputs(inst.Registry)
	return rt
}

// PreloadInputs places every registry object into the CSD's object store
// (datasets exist on the device before the experiment, as in §IV-B).
func (rt *Runtime) PreloadInputs(reg *inputs.Registry) {
	for _, name := range reg.Names() {
		e, _ := reg.Get(name)
		rt.Plat.Dev.Store.Preload(name, e.Value.SizeBytes())
	}
}

// Prepare takes inst through the front half of the pipeline once:
// parse, static analysis, sampling and curve fits, planning with illegal
// and never-win lines masked, the full-scale trace, and — when inst has
// one — the workload's reference check against the trace's final
// environment.
func (rt *Runtime) Prepare(inst *workloads.Instance) (*Prepared, error) {
	pr, err := rt.plan(inst.Source, inst.Registry)
	if err != nil {
		return nil, err
	}
	stop := rt.Metrics.Phase(metrics.PhaseTrace)
	ctx := inst.Registry.Context(1)
	pr.Trace, pr.Env, err = interp.Run(pr.Program, ctx)
	stop()
	if err != nil {
		return nil, fmt.Errorf("core: full-scale run: %w", err)
	}
	if inst.Check != nil {
		if err := inst.Check(pr.Env); err != nil {
			return nil, fmt.Errorf("core: correctness: %w", err)
		}
	}
	return pr, nil
}

// plan runs steps 1–3 — parse, analyze, sample, and plan with illegal
// lines masked from the planner — and returns the prepared program
// without its trace.
func (rt *Runtime) plan(src string, reg *inputs.Registry) (*Prepared, error) {
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
	planRes, stats, pruned, err := plan.Plan(estimates, cons, rt.Machine, rt.Planner, rt.PlanBudget)
	if err != nil {
		stop()
		return nil, fmt.Errorf("core: %w", err)
	}
	advisories, neverWin := advise(static, report, pruned, cons)
	stop()
	if stats.Fallback {
		// A genuine fallback: the exact planner was asked for but
		// branch-and-bound blew its node budget and degraded to the
		// greedy walk (the static AV008 vet note warns when a program's
		// dependence structure makes this possible).
		rt.Metrics.Counter(metrics.MetricPlanOptimalFallback).Add(1)
	}
	if stats.Nodes > 0 {
		rt.Metrics.Counter(metrics.MetricPlanBnBNodes).Add(float64(stats.Nodes))
		rt.Metrics.Counter(metrics.MetricPlanBnBCuts).Add(float64(stats.BoundCuts))
		rt.Metrics.Gauge(metrics.MetricPlanBnBBudget).Set(float64(stats.Budget))
	}
	if neverWin > 0 {
		rt.Metrics.Counter(metrics.MetricPlanPrunedLines).Add(float64(neverWin))
	}
	return &Prepared{
		Program:    prog,
		Analysis:   static,
		Profile:    report,
		Plan:       planRes,
		Estimates:  planRes.ByLine(),
		Machine:    rt.Machine,
		Advisories: slices.Clip(advisories),
	}, nil
}

// advise runs the dynamic-input analysis passes: the AV009 cross-check
// of fitted execution counts against the proved static bounds, and one
// AV011 advisory per never-win line that legality (cons) had not already
// pinned — plan.Plan pinned them all, which provably preserves the plan
// (see plan.NeverWin). It returns the advisories and the AV011 count.
func advise(static *analysis.Report, report *profile.Report, pruned []plan.PrunedLine, cons plan.Constraints) ([]analysis.Diagnostic, int) {
	var ms []analysis.Measured
	for _, p := range report.Predictions() {
		ms = append(ms, analysis.Measured{Line: p.Line, Execs: p.Execs})
	}
	advisories := static.CheckMeasured(ms)
	n := 0
	for _, pr := range pruned {
		if _, legal := cons.Pinned(pr.Line); legal {
			continue
		}
		n++
		advisories = append(advisories, analysis.Diagnostic{
			Line: pr.Line, Code: analysis.CodeNeverWin, Severity: analysis.SevWarning,
			Msg: pr.Reason,
		})
	}
	return advisories, n
}

// Vet runs steps 1–3 and returns the full diagnostic stream: the static
// lint catalogue (AV001–AV008, AV010) plus the dynamic-input advisories
// the sampling phase unlocks (AV009 bound-vs-fit contradictions, AV011
// never-win offloads). `activego vet -workloads` uses it so workload
// linting sees everything the real pipeline would.
func (rt *Runtime) Vet(src string, reg *inputs.Registry) ([]analysis.Diagnostic, error) {
	pr, err := rt.plan(src, reg)
	if err != nil {
		return nil, err
	}
	diags := pr.Analysis.Lint()
	diags = append(diags, pr.Advisories...)
	analysis.Sort(diags)
	return diags, nil
}

// Run executes src over reg with the full ActivePy pipeline: Prepare,
// then Prepared.Run on the runtime's platform.
func (rt *Runtime) Run(src string, reg *inputs.Registry, cfg Config) (*Outcome, error) {
	pr, err := rt.Prepare(&workloads.Instance{Source: src, Registry: reg})
	if err != nil {
		return nil, err
	}
	stop := rt.Metrics.Phase(metrics.PhaseExecute)
	defer stop()
	return pr.Run(rt.Plat, cfg, rt.Metrics)
}

// Run executes the prepared program on p under cfg, with reg observing
// the run (nil records nothing). On windowed runs (cfg.ObsWindow > 0)
// the observed costs are scored against the plan's fitted costs after
// the run, and a stale line becomes an AV012 advisory on the outcome.
// All of that happens after the simulated run finished: obs observes,
// it never feeds a decision.
func (pr *Prepared) Run(p *platform.Platform, cfg Config, reg *metrics.Registry) (*Outcome, error) {
	opts := pr.options(cfg)
	opts.Metrics = reg
	col := obs.NewCollector(cfg.ObsWindow, 0)
	opts.Obs = col
	res, err := exec.Run(p, pr.Trace, opts)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Prepared: pr, Exec: res, Advisories: pr.Advisories}
	if col != nil {
		out.Obs = col
		out.Drift = obs.ScoreDrift(col, obs.PlannedFromProvenance(pr.Plan.Provenance), obs.DefaultDriftConfig())
		col.Windows().Fold(reg)
		out.Drift.Fold(reg)
		out.Advisories = append(out.Advisories, out.Drift.Advisories()...)
	}
	return out, nil
}

// options are the executor options of a cold ActivePy run of pr under
// cfg: the plan's partition under the native backend, offloaded lines
// through the NVMe call queue, the stored estimate map for the migration
// monitor, the one-time sampling and compile overheads, and the legality
// gate. Every cold run of a prepared program builds its options here.
func (pr *Prepared) options(cfg Config) exec.Options {
	mig := exec.MigrationPolicy{}
	if cfg.Migration {
		mig = exec.DefaultMigration()
	}
	return exec.Options{
		Backend:          codegen.Native,
		Partition:        pr.Plan.Partition,
		Estimates:        pr.Estimates,
		Migration:        mig,
		SamplingOverhead: SamplingOverhead,
		OverheadScale:    cfg.OverheadScale,
		Resilience:       cfg.Resilience,
		Analysis:         pr.Analysis,
	}
}
