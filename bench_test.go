// Benchmarks for the paper's evaluation and the toolchain's host cost.
// BenchmarkExperiments regenerates every registered experiment
// (experiments.All()) at the gated configuration, so `go test -bench
// Experiments` times exactly what `benchsuite -exp all` runs; the
// committed benchmarks/BENCH_*.json manifests, not this file, are the
// record of the results. The ablations DESIGN.md §5 calls out run at
// 1/1024 of Table I's input sizes and report their headline numbers as
// custom metrics.
package activego_test

import (
	"testing"

	"activego/internal/codegen"
	"activego/internal/exec"
	"activego/internal/experiments"
	"activego/internal/inputs"
	"activego/internal/lang/ast"
	"activego/internal/lang/interp"
	"activego/internal/lang/parser"
	"activego/internal/lang/value"
	"activego/internal/par"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/profile"
	"activego/internal/sim"
	"activego/internal/workloads"
)

func benchParams() workloads.Params {
	return workloads.Params{ScaleDiv: 1024, Seed: 42}
}

// BenchmarkExperiments regenerates the registry at the configuration
// the committed manifests and CI's gate use (-scalediv 2048 -seed 42):
// one sub-benchmark per experiment (each preparing its own programs),
// then all of them the way benchsuite -exp all runs them —
// experiments.RunSuite preparing the union once and fanning the entries
// out on one pool that also threads into each harness's own fan-outs —
// serial (all/j1) and on every core (all/jN).
func BenchmarkExperiments(b *testing.B) {
	params := workloads.Params{ScaleDiv: 2048, Seed: 42}
	suite := experiments.All()
	for _, e := range suite {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("all", func(b *testing.B) {
		for _, bc := range []struct {
			name string
			pool *par.Pool
		}{{"j1", nil}, {"jN", par.New(0)}} {
			b.Run(bc.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := experiments.RunSuite(suite, params, experiments.WithPool(bc.pool)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkAblationGranularity compares the paper's one-line offload
// granularity against a finer-grained splitting that alternates adjacent
// lines between host and CSD (§III-B's argument: arbitrary fine
// distribution drowns in D2H transfers).
func BenchmarkAblationGranularity(b *testing.B) {
	spec, _ := workloads.ByName("tpch-6")
	wb, err := experiments.Prepare(spec, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	lines := wb.Trace.Lines()
	alternating := codegen.NewPartition()
	for i, ln := range lines {
		if i%2 == 0 {
			alternating.CSDLines[ln] = true
		}
	}
	var whole, fine float64
	for i := 0; i < b.N; i++ {
		w, err := wb.RunStatic(nil)
		if err != nil {
			b.Fatal(err)
		}
		whole = w.Duration
		f, err := exec.Run(platform.Default(), wb.Trace, exec.Options{
			Backend: codegen.C, Partition: alternating,
		})
		if err != nil {
			b.Fatal(err)
		}
		fine = f.Duration
	}
	b.ReportMetric(wb.Baseline/whole, "line-granular-x")
	b.ReportMetric(wb.Baseline/fine, "alternating-x")
}

// BenchmarkAblationPlanner compares the planners: the exact Equation 1
// argmin the runtime uses, the paper's greedy Algorithm 1 with chain
// commits, and the literal pseudocode. Metrics are measured (not
// projected) speedups of each planner's partition.
func BenchmarkAblationPlanner(b *testing.B) {
	spec, _ := workloads.ByName("tpch-6")
	wb, err := experiments.Prepare(spec, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	measure := func(part codegen.Partition) float64 {
		r, err := exec.Run(platform.Default(), wb.Trace, exec.Options{
			Backend: codegen.Native, Partition: part,
			OverheadScale: wb.Params.OverheadScale(),
		})
		if err != nil {
			b.Fatal(err)
		}
		return wb.Baseline / r.Duration
	}
	var optimalX, greedyX, literalX float64
	for i := 0; i < b.N; i++ {
		optimal := plan.Optimal(wb.Plan.Estimates, plan.Constraints{}, wb.Machine)
		greedy := plan.Algorithm1(wb.Plan.Estimates, plan.Constraints{}, wb.Machine)
		literal := plan.Algorithm1Literal(wb.Plan.Estimates, plan.Constraints{}, wb.Machine)
		optimalX = measure(optimal.Partition)
		greedyX = measure(greedy.Partition)
		literalX = measure(literal.Partition)
	}
	b.ReportMetric(optimalX, "optimal-x")
	b.ReportMetric(greedyX, "greedy-x")
	b.ReportMetric(literalX, "literal-x")
}

// BenchmarkAblationSampling varies the number of sampling scale factors
// (the paper uses four) and reports the mean output-volume prediction
// error under two-, four-, and six-point sampling.
func BenchmarkAblationSampling(b *testing.B) {
	spec, _ := workloads.ByName("tpch-6")
	wb, err := experiments.Prepare(spec, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	actual := map[int]float64{}
	for i := range wb.Trace.Records {
		rec := &wb.Trace.Records[i]
		actual[rec.Line] += float64(rec.OutBytes())
	}
	prog := wb.Plan // parsed program lives in the workbench's analysis
	_ = prog
	parsed, err := parseSource(wb.Inst.Source)
	if err != nil {
		b.Fatal(err)
	}
	scaleSets := map[string][]float64{
		"2pt": {1.0 / 64, 1.0 / 8},
		"4pt": profile.ScaledScales,
		"6pt": {1.0 / 64, 1.0 / 48, 1.0 / 32, 1.0 / 24, 1.0 / 16, 1.0 / 8},
	}
	errs := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for name, scales := range scaleSets {
			rep, err := profile.RunScalesPool(parsed, wb.Inst.Registry, scales, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			var sum float64
			var n int
			for _, pred := range rep.Predictions() {
				act := actual[pred.Line]
				if act < 4096 {
					continue
				}
				e := pred.OutBytes/act - 1
				if e < 0 {
					e = -e
				}
				sum += e
				n++
			}
			errs[name] = sum / float64(n)
		}
	}
	b.ReportMetric(errs["2pt"]*100, "err-2pt-%")
	b.ReportMetric(errs["4pt"]*100, "err-4pt-%")
	b.ReportMetric(errs["6pt"]*100, "err-6pt-%")
}

// parseSource is a tiny indirection so the benchmark file reads cleanly.
func parseSource(src string) (*ast.Program, error) { return parser.Parse(src) }

// BenchmarkAblationStorageTenant extends Figure 5's stressor: a
// storage-bound co-tenant that contends for flash channels as well as the
// CSE (the paper's "resource contention coming from the storage
// management workloads", §II-B3). Metrics: tpch-6 speedup under a
// CSE-only tenant vs a CSE+flash tenant at 50% availability.
func BenchmarkAblationStorageTenant(b *testing.B) {
	spec, _ := workloads.ByName("tpch-6")
	wb, err := experiments.Prepare(spec, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	var cseOnly, cseFlash float64
	for i := 0; i < b.N; i++ {
		r1, err := wb.RunStatic(func(p *platform.Platform) {
			p.Dev.SetAvailability(0.5)
		})
		if err != nil {
			b.Fatal(err)
		}
		cseOnly = wb.Baseline / r1.Duration
		r2, err := wb.RunStatic(func(p *platform.Platform) {
			p.Dev.SetAvailability(0.5)
			p.Dev.Array.SetAvailability(0.5)
		})
		if err != nil {
			b.Fatal(err)
		}
		cseFlash = wb.Baseline / r2.Duration
	}
	b.ReportMetric(cseOnly, "cse-tenant-x")
	b.ReportMetric(cseFlash, "cse+flash-tenant-x")
}

// BenchmarkAblationPreempt measures §III-D case 1: a high-priority tenant
// demands the device mid-run; ActivePy vacates at the next line boundary.
// Metrics: speedup with the demand honored vs a static program that
// cannot vacate (and so runs to completion on a device it should have
// surrendered, modeled as 10% availability from the demand onward).
func BenchmarkAblationPreempt(b *testing.B) {
	spec, _ := workloads.ByName("blackscholes")
	wb, err := experiments.Prepare(spec, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	ref, err := wb.RunActivePy(false, nil)
	if err != nil {
		b.Fatal(err)
	}
	t50 := ref.Start + (ref.End-ref.Start)/2
	var vacate, squat float64
	for i := 0; i < b.N; i++ {
		rv, err := wb.RunActivePy(true, func(p *platform.Platform) {
			p.Dev.DemandAt(t50)
			p.Dev.ScheduleStress(t50, 0.1, 0)
		})
		if err != nil {
			b.Fatal(err)
		}
		vacate = wb.Baseline / rv.Duration
		rs, err := wb.RunActivePy(false, func(p *platform.Platform) {
			p.Dev.ScheduleStress(t50, 0.1, 0)
		})
		if err != nil {
			b.Fatal(err)
		}
		squat = wb.Baseline / rs.Duration
	}
	b.ReportMetric(vacate, "vacate-x")
	b.ReportMetric(squat, "squat-x")
}

// BenchmarkSimEventThroughput measures the raw event kernel: how many
// scheduled-and-fired events per second the simulator sustains.
func BenchmarkSimEventThroughput(b *testing.B) {
	s := simNew()
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			s.After(1e-9, fire)
		}
	}
	b.ResetTimer()
	s.After(1e-9, fire)
	s.Run()
}

// BenchmarkInterpreterScan measures the mini-language interpreter on a
// 1M-element scan program (real computation plus trace recording).
func BenchmarkInterpreterScan(b *testing.B) {
	reg := inputsNewRegistry()
	data := make([]float64, 1<<20)
	reg.Add("v", valueNewVec(data), inputsModeRows)
	prog, err := parser.Parse("v = load(\"v\")\nw = vmul(v, 2.0)\ns = vsum(w)\n")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := interpRun(prog, reg.Context(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplingPhase measures the §III-A sampling phase — four
// scaled interpreter runs plus curve fitting — serial and fanned out
// over the scale factors on a pool. Output is bit-identical either way
// (TestParallelInvariance); only wall clock moves. tpch-6 samples
// tables; kmeans, lightgbm and mixedgemm sample row-mode matrices, whose
// samples and row blocks are views of the input rather than copies.
func BenchmarkSamplingPhase(b *testing.B) {
	for _, name := range []string{"tpch-6", "kmeans", "lightgbm", "mixedgemm"} {
		spec, _ := workloads.ByName(name)
		inst := spec.Build(benchParams())
		prog, err := parser.Parse(inst.Source)
		if err != nil {
			b.Fatal(err)
		}
		for _, bc := range []struct {
			name string
			pool *par.Pool
		}{{"j1", nil}, {"jN", par.New(0)}} {
			b.Run(name+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := profile.RunScalesPool(prog, inst.Registry, profile.ScaledScales, nil, bc.pool); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOptimal16Lines times the brute-force oracle at its
// enumeration ceiling: 16 offloadable lines = 65536 candidate placements
// scanned serially — the cost the runtime's branch-and-bound planner
// (BenchmarkBnB24Lines, BenchmarkBnB32Lines) avoids.
func BenchmarkOptimal16Lines(b *testing.B) {
	spec, _ := workloads.ByName("tpch-6")
	wb, err := experiments.Prepare(spec, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	estimates := make([]plan.LineEstimate, plan.MaxOptimalLines)
	for i := range estimates {
		ct := 1e-4 * float64(1+i%5)
		estimates[i] = plan.LineEstimate{
			Line: i + 1, Execs: 1,
			CTHost: ct, CTDev: wb.Machine.C * ct,
			SHost: 2e-4, SDev: 1e-4,
			DIn: float64(1+i) * 1e5, DOut: float64(16-i) * 1e4,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Optimal(estimates, plan.Constraints{}, wb.Machine)
	}
}

// benchmarkBnB times the runtime's planning entry, never-win pins and
// branch-and-bound search, on a fixture program past the old 16-line
// enumeration cliff, where the seed planner would have silently
// degraded to Algorithm 1. The search must stay exact (no node-budget
// fallback) on every iteration.
func benchmarkBnB(b *testing.B, lines int) {
	m := plan.MachineFromPlatform(platform.Default())
	estimates := experiments.PlannerFixture(lines)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, stats, _, err := plan.Plan(estimates, plan.Constraints{}, m, plan.PlannerBnB, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Planner != plan.PlannerBnB || stats.Fallback {
			b.Fatalf("planner %q fallback=%t", res.Planner, stats.Fallback)
		}
	}
}

// BenchmarkBnB24Lines: 1.5× the old cliff — two dependence chains, each
// solved exactly by its own bounded search.
func BenchmarkBnB24Lines(b *testing.B) { benchmarkBnB(b, 24) }

// BenchmarkBnB32Lines: double the old cliff (2^32 candidate placements
// under brute force; the never-win pins and the bound cuts reduce the
// search to a few hundred nodes).
func BenchmarkBnB32Lines(b *testing.B) { benchmarkBnB(b, 32) }

// BenchmarkSimKernelScheduleFire measures the event kernel's hot loop:
// schedule a batch, drain it, repeat. With the typed heap and the event
// free list the steady state should run allocation-free — allocs/op is
// the headline metric.
func BenchmarkSimKernelScheduleFire(b *testing.B) {
	const batch = 64
	s := simNew()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			s.After(float64(j+1)*1e-9, fn)
		}
		s.Run()
	}
}

// Thin aliases keeping the benchmark file's imports tidy.
var (
	simNew            = sim.New
	inputsNewRegistry = inputs.NewRegistry
	valueNewVec       = value.NewVec
	interpRun         = interp.Run
)

const inputsModeRows = inputs.ModeRows
