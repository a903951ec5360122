package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"activego/internal/bench"
	"activego/internal/metrics"
	"activego/internal/par"
	"activego/internal/report"
	"activego/internal/trace"
	"activego/internal/workloads"
)

// Experiment is one entry of the suite. Name is the study's one
// identifier: benchsuite's -exp value, the manifest's experiment field,
// the BENCH_<name>.json file name, and the BenchmarkExperiments
// sub-benchmark. Programs declares what the study reads from the
// prepared set. Run regenerates the study at params; run alone, it
// prepares exactly its declared programs.
type Experiment struct {
	Name     string
	Programs Programs
	Run      func(params workloads.Params, opts ...Option) (*Output, error)
}

// Output is everything one experiment run yields.
type Output struct {
	// Text is what benchsuite prints for the study: its table plus any
	// footer lines (utilization table and migration timeline, chaos
	// summary, capacity, stale set).
	Text     string
	Manifest *bench.Manifest
	// Rec is the study's recording, folded into the caller's metrics
	// registry; nil when the study records none.
	Rec *trace.Recorder
}

// All returns the suite in its fixed order: the paper's six artefacts,
// then the studies this reproduction added. benchsuite -exp, its help
// text, go test -bench Experiments, and the docs and manifest tests all
// iterate this list.
func All() []Experiment {
	return []Experiment{
		study("table1", tableIPrograms, Table1, nil),
		study("fig2", fig2Programs, Fig2, nil),
		study("fig4", fig4Programs, Fig4, nil),
		study("fig5", allPrograms, Fig5, func(r *Fig5Result, out io.Writer) *trace.Recorder {
			fmt.Fprintln(out)
			fmt.Fprint(out, r.Rec.UtilizationTable(fmt.Sprintf(
				"Utilization & timelines (ours, no paper counterpart): %s, full ActivePy pipeline", Fig5TraceWorkload)).String())
			fmt.Fprintln(out)
			fmt.Fprint(out, r.MigrationTimeline().String())
			return r.Rec
		}),
		study("accuracy", allPrograms, Accuracy, nil),
		study("runtimeopt", tableIPrograms, RuntimeOpt, nil),
		study("resilience", resiliencePrograms, Resilience, func(r *ResilienceResult, out io.Writer) *trace.Recorder {
			if r.Chaos != nil {
				fmt.Fprintln(out, r.Chaos.Summary())
			}
			return r.Rec
		}),
		study("serving", servingPrograms, Serving, func(r *ServingResult, out io.Writer) *trace.Recorder {
			fmt.Fprintf(out, "capacity: %.1f req/s (mix-weighted solo service %.4fs)\n",
				r.CapacityQPS, r.MeanService)
			return r.Rec
		}),
		study("drift", driftPrograms, Drift, func(r *DriftResult, out io.Writer) *trace.Recorder {
			fmt.Fprintf(out, "stale: control %v, burst %v of offloaded %v (overlap %d)\n",
				r.Control.Stale, r.Burst.Stale, r.Offloaded, r.StaleOffloadedOverlap())
			return nil
		}),
		study("planner", Programs{}, Planner, nil),
	}
}

// ByName returns the registered experiment called name.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// result is what every harness returns besides its table: a value that
// converts into the study's manifest.
type result interface {
	Bench(params workloads.Params) *bench.Manifest
}

// study adapts a harness to the registry's shape: its table, then the
// footer lines footer writes (nil = none), and its manifest. footer
// returns the study's recording.
func study[R result](name string, decl Programs, run func(workloads.Params, ...Option) (R, *report.Table, error),
	footer func(res R, out io.Writer) *trace.Recorder) Experiment {
	return Experiment{Name: name, Programs: decl, Run: func(params workloads.Params, opts ...Option) (*Output, error) {
		res, tbl, err := run(params, opts...)
		if err != nil {
			return nil, err
		}
		var out strings.Builder
		out.WriteString(tbl.String())
		var rec *trace.Recorder
		if footer != nil {
			rec = footer(res, &out)
		}
		return &Output{Text: out.String(), Manifest: res.Bench(params), Rec: rec}, nil
	}}
}

// RunSuite runs exps at params against one shared, read-only set of
// prepared programs: the union of the programs they declare, prepared
// once each on WithPool's pool before any study starts, its metrics
// merged into WithMetrics' registry first. The experiments then fan out
// on the pool, each against its declared view of the set and into its
// own sub-registry; in suite order, each sub-registry (recording folded
// in) merges into the registry — so every output is bit-identical at
// any pool size.
// cmd/benchsuite and BenchmarkExperiments run the suite through it.
func RunSuite(exps []Experiment, params workloads.Params, opts ...Option) ([]*Output, error) {
	o := buildOptions(opts)
	decls := make([]Programs, len(exps))
	for i, e := range exps {
		decls[i] = e.Programs
	}
	set, err := prepareSet(params, decls, o.metrics, o.pool)
	if err != nil {
		return nil, err
	}
	subs := make([]*metrics.Registry, len(exps))
	outs, err := par.Map(o.pool, len(exps), func(i int) (*Output, error) {
		if o.metrics != nil {
			subs[i] = metrics.New()
		}
		run := append(slices.Clip(opts), WithMetrics(subs[i]), func(eo *options) { eo.set = set })
		return exps[i].Run(params, run...)
	})
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		out.Rec.Fold(subs[i])
		o.metrics.Merge(subs[i])
	}
	return outs, nil
}
