package experiments

import (
	"fmt"
	"io"
	"strings"

	"activego/internal/bench"
	"activego/internal/report"
	"activego/internal/trace"
	"activego/internal/workloads"
)

// Experiment is one entry of the suite. Name is the study's one
// identifier: benchsuite's -exp value, the manifest's experiment field,
// the BENCH_<name>.json file name, and the BenchmarkExperiments
// sub-benchmark. Run regenerates the study at params.
type Experiment struct {
	Name string
	Run  func(params workloads.Params, opts ...Option) (*Output, error)
}

// Output is everything one experiment run yields.
type Output struct {
	// Text is what benchsuite prints for the study: its table plus any
	// footer lines (chaos summary, migration timeline, capacity, stale
	// set).
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
		study("table1", Table1, nil),
		study("fig2", Fig2, nil),
		study("fig4", Fig4, nil),
		study("fig5", Fig5, nil),
		study("accuracy", Accuracy, nil),
		study("runtimeopt", RuntimeOpt, nil),
		study("robustness", Robustness, nil),
		study("resilience", Resilience, func(r *ResilienceResult, out io.Writer) *trace.Recorder {
			if r.Chaos != nil {
				fmt.Fprintln(out, r.Chaos.Summary())
			}
			return r.Rec
		}),
		study("utilization", Utilization, func(u *UtilizationResult, out io.Writer) *trace.Recorder {
			fmt.Fprintln(out)
			fmt.Fprint(out, u.MigrationTimeline().String())
			return u.Rec
		}),
		study("serving", Serving, func(r *ServingResult, out io.Writer) *trace.Recorder {
			fmt.Fprintf(out, "capacity: %.1f req/s (mix-weighted solo service %.4fs)\n",
				r.CapacityQPS, r.MeanService)
			return r.Rec
		}),
		study("drift", Drift, func(r *DriftResult, out io.Writer) *trace.Recorder {
			fmt.Fprintf(out, "stale: control %v, burst %v of offloaded %v (overlap %d)\n",
				r.Control.Stale, r.Burst.Stale, r.Offloaded, r.StaleOffloadedOverlap())
			return nil
		}),
		study("planner", Planner, nil),
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
func study[R result](name string, run func(workloads.Params, ...Option) (R, *report.Table, error),
	footer func(res R, out io.Writer) *trace.Recorder) Experiment {
	return Experiment{Name: name, Run: func(params workloads.Params, opts ...Option) (*Output, error) {
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
