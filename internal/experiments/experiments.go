// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Table I's application catalog, Figure 2's availability
// sweep of static C ISP, Figure 4's ActivePy-vs-programmer-directed
// comparison, Figure 5's migration study, the §V prediction-accuracy
// numbers, and the §V language-runtime optimization ladder — plus the
// studies this reproduction added (robustness, resilience, utilization,
// serving, drift, planner).
//
// Each harness returns structured results plus a report.Table with the
// same rows the paper's figure plots, and each result converts into a
// bench.Manifest. All() lists every study once, in suite order, as an
// Experiment whose Run yields the printed text, the manifest, and the
// study's recording: cmd/benchsuite and bench_test.go's
// BenchmarkExperiments iterate it, and the committed
// benchmarks/BENCH_<name>.json manifests are the record of its results.
// Absolute numbers differ from the paper (its substrate was real
// silicon; ours is the simulator at 1/ScaleDiv of Table I's input
// sizes) — the shape is the reproduction target, and EXPERIMENTS.md
// records paper-vs-measured for every row.
package experiments

import (
	"fmt"

	"activego/internal/baseline"
	"activego/internal/codegen"
	"activego/internal/core"
	"activego/internal/exec"
	"activego/internal/lang/interp"
	"activego/internal/metrics"
	"activego/internal/par"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/profile"
	"activego/internal/workloads"
)

// Option configures a harness run. Every harness takes options
// variadically, so existing call sites are unchanged.
type Option func(*options)

type options struct {
	metrics *metrics.Registry
	pool    *par.Pool
	serving ServingOverrides
}

// WithMetrics instruments the harness with the registry: pipeline phase
// timers, executor run counters, and the last run's platform gauges all
// fold into reg. Metrics observe wall-clock time and completed results
// only — simulated behavior is bit-identical with or without them
// (TestMetricsInvariance pins this).
func WithMetrics(reg *metrics.Registry) Option {
	return func(o *options) { o.metrics = reg }
}

// WithPool fans the harness out on p: independent workload configs run
// concurrently (each simulation stays single-goroutine on its own
// kernel), and the pool threads through Prepare into the pipeline's own
// fan-outs (sampling scales, Optimal enumeration shards). Results,
// tables, and metrics are assembled in input order, so every output is
// bit-identical to the serial run — TestParallelInvariance pins it.
func WithPool(p *par.Pool) Option {
	return func(o *options) { o.pool = p }
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// overSpecs runs body once per input index, fanned out on o's pool, and
// returns the bodies' results indexed by input position. Each body gets
// the option slice to forward to Prepare: the shared pool, plus — when
// the harness was given a metrics registry — a private sub-registry, so
// concurrent bodies never interleave their recordings. The sub-registries
// merge back into the shared registry in input order after every body
// finishes (see metrics.Merge), which makes the final registry state a
// pure function of the inputs, not of goroutine scheduling. The serial
// path uses the same sub-registry structure, so -j 1 and -j N snapshots
// are bit-identical.
func overSpecs[T any](o options, n int, body func(i int, opts []Option) (T, error)) ([]T, error) {
	subs := make([]*metrics.Registry, n)
	out, err := par.Map(o.pool, n, func(i int) (T, error) {
		var sopts []Option
		if o.metrics != nil {
			subs[i] = metrics.New()
			sopts = append(sopts, WithMetrics(subs[i]))
		}
		if o.pool != nil {
			sopts = append(sopts, WithPool(o.pool))
		}
		return body(i, sopts)
	})
	if err != nil {
		return nil, err
	}
	for _, sub := range subs {
		o.metrics.Merge(sub)
	}
	return out, nil
}

// Workbench holds everything computed once per workload and shared by
// the experiments: the instance, its full-scale trace (real values), the
// measured baseline, the exhaustively tuned static partition, and the
// ActivePy analysis.
type Workbench struct {
	Spec     workloads.Spec
	Inst     *workloads.Instance
	Params   workloads.Params
	Trace    *interp.Trace
	Env      *interp.Env
	Profile  *profile.Report
	Plan     *plan.Result
	Machine  plan.Machine
	Baseline float64 // no-ISP C baseline duration, seconds

	StaticPart codegen.Partition // exhaustive programmer-directed optimum
	StaticTime float64

	// Metrics, when non-nil, receives phase timers from preparation and
	// run counters / platform gauges from every Run* call.
	Metrics *metrics.Registry
}

// Prepare builds the workbench for one workload.
func Prepare(spec workloads.Spec, params workloads.Params, opts ...Option) (*Workbench, error) {
	o := buildOptions(opts)
	inst := spec.Build(params)
	rt := core.New(platform.Default())
	rt.SampleScales = profile.ScaledScales // instances are pre-scaled; see profile.ScaledScales
	rt.Metrics = o.metrics
	rt.Pool = o.pool
	rt.PreloadInputs(inst.Registry)

	prog, rep, planRes, err := rt.Analyze(inst.Source, inst.Registry)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: analyze: %w", spec.Name, err)
	}
	ctx := inst.Registry.Context(1)
	trace, env, err := interp.Run(prog, ctx)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: trace: %w", spec.Name, err)
	}
	if err := inst.Check(env); err != nil {
		return nil, fmt.Errorf("experiments: %s: correctness: %w", spec.Name, err)
	}

	base, err := baseline.RunHostOnly(platform.Default(), trace, codegen.C)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: baseline: %w", spec.Name, err)
	}
	part, bestT, err := baseline.Search(platform.DefaultConfig(), trace)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: search: %w", spec.Name, err)
	}
	return &Workbench{
		Spec:       spec,
		Inst:       inst,
		Params:     params,
		Trace:      trace,
		Env:        env,
		Profile:    rep,
		Plan:       planRes,
		Machine:    rt.Machine,
		Baseline:   base.Duration,
		StaticPart: part,
		StaticTime: bestT,
		Metrics:    o.metrics,
	}, nil
}

// RunActivePy executes the workbench's trace under the full ActivePy
// configuration on a fresh platform whose CSE availability is set by
// prepare (nil = leave at 1) and returns the exec result.
func (wb *Workbench) RunActivePy(migration bool, prepare func(p *platform.Platform)) (*exec.Result, error) {
	p := platform.Default()
	if prepare != nil {
		prepare(p)
	}
	mig := exec.MigrationPolicy{}
	if migration {
		mig = exec.DefaultMigration()
	}
	res, err := exec.Run(p, wb.Trace, exec.Options{
		Backend:          codegen.Native,
		Partition:        wb.Plan.Partition,
		Estimates:        wb.Plan.ByLine(),
		Migration:        mig,
		SamplingOverhead: core.SamplingOverhead,
		OverheadScale:    wb.Params.OverheadScale(),
		UseCallQueue:     true,
		Metrics:          wb.Metrics,
	})
	p.FoldMetrics(wb.Metrics)
	return res, err
}

// RunStatic executes the programmer-directed static partition under
// backend C (no migration, no sampling) on a fresh prepared platform.
func (wb *Workbench) RunStatic(prepare func(p *platform.Platform)) (*exec.Result, error) {
	p := platform.Default()
	if prepare != nil {
		prepare(p)
	}
	res, err := baseline.RunStatic(p, wb.Trace, wb.StaticPart, codegen.C)
	p.FoldMetrics(wb.Metrics)
	return res, err
}

// RunBackend executes the trace host-only under an arbitrary backend
// (the runtime-optimization ladder).
func (wb *Workbench) RunBackend(b codegen.Backend) (*exec.Result, error) {
	p := platform.Default()
	res, err := exec.Run(p, wb.Trace, exec.Options{
		Backend:       b,
		Partition:     codegen.NewPartition(),
		OverheadScale: wb.Params.OverheadScale(),
		Metrics:       wb.Metrics,
	})
	p.FoldMetrics(wb.Metrics)
	return res, err
}

// PrepareAll prepares workbenches for the given specs.
func PrepareAll(specs []workloads.Spec, params workloads.Params, opts ...Option) ([]*Workbench, error) {
	out := make([]*Workbench, 0, len(specs))
	for _, s := range specs {
		wb, err := Prepare(s, params, opts...)
		if err != nil {
			return nil, err
		}
		out = append(out, wb)
	}
	return out, nil
}
