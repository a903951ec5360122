// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Table I's application catalog, Figure 2's availability
// sweep of static C ISP, Figure 4's ActivePy-vs-programmer-directed
// comparison, Figure 5's migration study, the §V prediction-accuracy
// numbers, and the §V language-runtime optimization ladder — plus the
// studies this reproduction added (resilience, serving, drift, planner).
//
// Each harness returns structured results plus a report.Table with the
// same rows the paper's figure plots, and each result converts into a
// bench.Manifest. All() lists every study once, in suite order, as an
// Experiment that declares the programs it reads and whose Run yields
// the printed text, the manifest, and the study's recording. RunSuite
// prepares the union of those programs once (core.Runtime.Prepare) and
// runs every study against that read-only set: cmd/benchsuite and
// bench_test.go's BenchmarkExperiments run the suite through it, and the
// committed benchmarks/BENCH_<name>.json manifests are the record of its
// results.
// Absolute numbers differ from the paper (its substrate was real
// silicon; ours is the simulator at 1/ScaleDiv of Table I's input
// sizes) — the shape is the reproduction target, and EXPERIMENTS.md
// records paper-vs-measured for every row.
package experiments

import (
	"fmt"
	"slices"

	"activego/internal/baseline"
	"activego/internal/codegen"
	"activego/internal/core"
	"activego/internal/exec"
	"activego/internal/metrics"
	"activego/internal/par"
	"activego/internal/platform"
	"activego/internal/workloads"
)

// Option configures a harness run. Every harness takes options
// variadically, so existing call sites are unchanged.
type Option func(*options)

type options struct {
	metrics *metrics.Registry
	pool    *par.Pool
	serving ServingOverrides
	sweep   struct {
		n    int
		seed uint64
	}
	// set is the suite's shared set of prepared programs; only RunSuite
	// passes one (nil: the study prepares its own declared programs).
	set *programSet
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
// kernel), and the pool threads through preparation into the sampling
// runs, the pipeline's only fan-out. Results, tables, and metrics are
// assembled in input order, so every output is bit-identical to the
// serial run — TestParallelInvariance pins it.
func WithPool(p *par.Pool) Option {
	return func(o *options) { o.pool = p }
}

// WithChaosSweep sizes the resilience study's chaos sub-run: with n > 0
// it runs n randomized fault schedules seeded by seed instead of
// ResilienceChaosSchedules at ResilienceSeed. n = 0 keeps the default.
func WithChaosSweep(n int, seed uint64) Option {
	return func(o *options) { o.sweep.n, o.sweep.seed = n, seed }
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// overSpecs runs body once per input index, fanned out on o's pool, and
// returns the bodies' results indexed by input position. When the
// harness was given a metrics registry, each body gets a private
// sub-registry (nil otherwise), so concurrent bodies never interleave
// their recordings. The sub-registries merge back into the shared
// registry in input order after every body finishes (see metrics.Merge),
// which makes the final registry state a pure function of the inputs,
// not of goroutine scheduling. The serial path uses the same
// sub-registry structure, so -j 1 and -j N snapshots are bit-identical.
func overSpecs[T any](o options, n int, body func(i int, reg *metrics.Registry) (T, error)) ([]T, error) {
	subs := make([]*metrics.Registry, n)
	out, err := par.Map(o.pool, n, func(i int) (T, error) {
		if o.metrics != nil {
			subs[i] = metrics.New()
		}
		return body(i, subs[i])
	})
	if err != nil {
		return nil, err
	}
	for _, sub := range subs {
		o.metrics.Merge(sub)
	}
	return out, nil
}

// Workbench is one prepared program plus what only the experiments
// need: the instance, the measured no-ISP C baseline and, for the
// studies that read it, the exhaustively tuned static partition.
type Workbench struct {
	*core.Prepared
	Spec     workloads.Spec
	Inst     *workloads.Instance
	Params   workloads.Params
	Baseline float64 // no-ISP C baseline duration, seconds

	// StaticPart and StaticTime are the exhaustive programmer-directed
	// optimum (baseline.Search). Only a workbench prepared with the
	// static bar has them; StaticTime is 0 otherwise.
	StaticPart codegen.Partition
	StaticTime float64

	// Metrics, when non-nil, receives run counters and platform gauges
	// from every Run* call.
	Metrics *metrics.Registry
}

// Prepare builds the workbench for one workload, static bar included.
// Preparation's phase timers and planner counters land in WithMetrics'
// registry, which the workbench's runs then record into too.
func Prepare(spec workloads.Spec, params workloads.Params, opts ...Option) (*Workbench, error) {
	return buildOptions(opts).only(params, Programs{Names: []string{spec.Name}, Static: true})
}

// prepare takes one workload through core's front half and measures its
// no-ISP C baseline, plus its static bar when static is set.
func prepare(spec workloads.Spec, params workloads.Params, static bool, reg *metrics.Registry, pool *par.Pool) (*Workbench, error) {
	inst := spec.Build(params)
	rt := core.ForWorkload(inst)
	rt.Metrics = reg
	rt.Pool = pool
	pr, err := rt.Prepare(inst)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", spec.Name, err)
	}
	base, err := baseline.RunHostOnly(platform.Default(), pr.Trace, codegen.C)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: baseline: %w", spec.Name, err)
	}
	wb := &Workbench{Prepared: pr, Spec: spec, Inst: inst, Params: params, Baseline: base.Duration}
	if static {
		wb.StaticPart, wb.StaticTime, err = baseline.Search(platform.DefaultConfig(), pr.Trace)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: search: %w", spec.Name, err)
		}
	}
	return wb, nil
}

// Programs declares what a study reads from the prepared set: the
// workloads it runs, and whether it reads their programmer-directed
// static bar (baseline.Search), which only fig2 and fig4 plot.
type Programs struct {
	Names  []string
	Static bool
}

// allPrograms and tableIPrograms are the catalogue-wide declarations:
// every workload (fig5, accuracy) and Table I's nine (table1, runtimeopt).
var (
	allPrograms    = Programs{Names: specNames(workloads.All())}
	tableIPrograms = Programs{Names: specNames(workloads.TableI())}
)

func specNames(specs []workloads.Spec) []string {
	names := make([]string, len(specs))
	for i, spec := range specs {
		names[i] = spec.Name
	}
	return names
}

// programSet is a read-only set of prepared workbenches, one per distinct
// program, shared by the studies of one suite run. Nothing writes a
// member after prepareSet returns: a study reads its programs through
// workbench, which hands out private copies.
type programSet struct {
	wbs map[string]*Workbench
	// decl is the reading study's declaration: a view answers only for
	// the programs it names.
	decl Programs
}

// prepareSet prepares the union of decls' programs once each — in
// catalogue order, fanned out on pool — with the static bar for those a
// declaration with Static lists. Each program records into its own
// sub-registry; they merge into reg in catalogue order.
func prepareSet(params workloads.Params, decls []Programs, reg *metrics.Registry, pool *par.Pool) (*programSet, error) {
	static := map[string]bool{} // keyed by every declared program
	for _, d := range decls {
		for _, name := range d.Names {
			static[name] = static[name] || d.Static
		}
	}
	var specs []workloads.Spec
	for _, spec := range workloads.All() {
		if _, ok := static[spec.Name]; ok {
			specs = append(specs, spec)
		}
	}
	wbs, err := overSpecs(options{metrics: reg, pool: pool}, len(specs), func(i int, sub *metrics.Registry) (*Workbench, error) {
		return prepare(specs[i], params, static[specs[i].Name], sub, pool)
	})
	if err != nil {
		return nil, err
	}
	s := &programSet{wbs: map[string]*Workbench{}}
	for _, wb := range wbs {
		s.wbs[wb.Spec.Name] = wb
	}
	return s, nil
}

// programs returns the set a study reads, restricted to decl: the
// suite's shared set when RunSuite passed one, else decl's programs
// prepared now into the study's own registry — so a study run alone
// prepares exactly its own list.
func (o options) programs(params workloads.Params, decl Programs) (*programSet, error) {
	s := o.set
	if s == nil {
		var err error
		if s, err = prepareSet(params, []Programs{decl}, o.metrics, o.pool); err != nil {
			return nil, err
		}
	}
	return &programSet{wbs: s.wbs, decl: decl}, nil
}

// workbench returns a private copy of the named program's workbench
// whose runs record into reg. Reading a program the study did not
// declare is an error, never a quiet preparation, and a study that did
// not declare the static bar does not see one.
func (s *programSet) workbench(name string, reg *metrics.Registry) (*Workbench, error) {
	if !slices.Contains(s.decl.Names, name) {
		return nil, fmt.Errorf("experiments: %s is not among the study's declared programs %v", name, s.decl.Names)
	}
	shared, ok := s.wbs[name]
	if !ok {
		return nil, fmt.Errorf("experiments: %s was not prepared", name)
	}
	wb := *shared
	wb.Metrics = reg
	if !s.decl.Static {
		wb.StaticPart, wb.StaticTime = codegen.Partition{}, 0
	}
	return &wb, nil
}

// overPrograms runs body once per program decl names, in that order,
// fanned out on o's pool (overSpecs), each on a private copy of the
// program's workbench that records into its own sub-registry.
func overPrograms[T any](params workloads.Params, o options, decl Programs, body func(wb *Workbench) (T, error)) ([]T, error) {
	set, err := o.programs(params, decl)
	if err != nil {
		return nil, err
	}
	return overSpecs(o, len(decl.Names), func(i int, reg *metrics.Registry) (T, error) {
		wb, err := set.workbench(decl.Names[i], reg)
		if err != nil {
			var zero T
			return zero, err
		}
		return body(wb)
	})
}

// only returns the workbench of a study that declares one program,
// recording into the study's registry.
func (o options) only(params workloads.Params, decl Programs) (*Workbench, error) {
	set, err := o.programs(params, decl)
	if err != nil {
		return nil, err
	}
	return set.workbench(decl.Names[0], o.metrics)
}

// config is the ActivePy configuration every Workbench run starts from:
// migration off, overheads at the workload's scale.
func (wb *Workbench) config() core.Config {
	return core.Config{OverheadScale: wb.Params.OverheadScale()}
}

// runActivePy executes the prepared program under cfg on p and folds
// p's gauges into the workbench's registry.
func (wb *Workbench) runActivePy(p *platform.Platform, cfg core.Config) (*exec.Result, error) {
	out, err := wb.Run(p, cfg, wb.Metrics)
	p.FoldMetrics(wb.Metrics)
	if err != nil {
		return nil, err
	}
	return out.Exec, nil
}

// RunActivePy executes the workbench's trace under the full ActivePy
// configuration on a fresh platform whose CSE availability is set by
// prepare (nil = leave at 1) and returns the exec result.
func (wb *Workbench) RunActivePy(migration bool, prepare func(p *platform.Platform)) (*exec.Result, error) {
	p := platform.Default()
	if prepare != nil {
		prepare(p)
	}
	cfg := wb.config()
	cfg.Migration = migration
	return wb.runActivePy(p, cfg)
}

// RunStatic executes the programmer-directed static partition under
// backend C (no migration, no sampling) on a fresh prepared platform.
func (wb *Workbench) RunStatic(prepare func(p *platform.Platform)) (*exec.Result, error) {
	if wb.StaticTime == 0 {
		return nil, fmt.Errorf("experiments: %s: prepared without the static bar", wb.Spec.Name)
	}
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
