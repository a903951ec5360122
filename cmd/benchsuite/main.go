// Command benchsuite regenerates the paper's evaluation — every table and
// figure of §IV/§V — and the studies this reproduction added, printed as
// text tables with the same rows the paper plots, and optionally
// serialized as machine-readable benchmark manifests for CI's
// perf-regression gate.
//
// Usage:
//
//	benchsuite [-exp all|NAME] [-scalediv N] [-seed S] [-j N] [-outdir DIR] [-metrics out.json]
//	           [-chaos N] [-chaos-seed S]
//	           [-tenants N] [-arrival poisson|bursty|uniform|closed] [-qps Q] [-duration D]
//	           [-pprof cpu.pb] [-memprofile mem.pb]
//	           [-trace out.json] [-tracesummary]
//	benchsuite -compare old.json new.json [-tolerance 0.10]
//
// The experiments are experiments.All(), run and printed in its order;
// -h lists their names. -trace and -tracesummary export the recording of
// the one experiment -exp names; with -exp all, or with an experiment
// that records nothing, they are an error.
//
// Inputs are synthesized at 1/scalediv of Table I's sizes (default 512,
// ~10-18 MB per application); the shape of every result — who wins, by
// what factor, where crossovers fall — is the reproduction target, not
// absolute times.
//
// With -outdir, every experiment additionally writes BENCH_<exp>.json: a
// schema-versioned manifest of its simulated results, planner choices,
// and Go runtime stats (see internal/bench and DESIGN.md §10). -metrics
// writes the whole suite's registry once, at the end. -compare diffs
// two manifests benchstat-style and exits nonzero when a tracked value
// worsened past the tolerance — the CI gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"activego/internal/bench"
	"activego/internal/cliutil"
	"activego/internal/experiments"
	"activego/internal/workloads"
)

func main() {
	suite := experiments.All()
	names := make([]string, len(suite))
	for i, e := range suite {
		names[i] = e.Name
	}
	exp := flag.String("exp", "all", "experiment: all, "+strings.Join(names, ", "))
	chaosN := flag.Int("chaos", 0, fmt.Sprintf("run the resilience experiment's chaos sub-run over N randomized fault schedules instead of its built-in %d (0 = the built-in sub-run)", experiments.ResilienceChaosSchedules))
	chaosSeed := flag.Uint64("chaos-seed", experiments.ResilienceSeed, "seed for the -chaos schedules")
	scaleDiv := flag.Int64("scalediv", 512, "divide Table I input sizes by this factor")
	seed := flag.Int64("seed", 42, "generator seed")
	outDir := flag.String("outdir", "", "write one BENCH_<exp>.json benchmark manifest per experiment into this directory")
	compare := flag.Bool("compare", false, "compare two manifests: benchsuite -compare old.json new.json; exit 1 on regression")
	tolerance := flag.Float64("tolerance", bench.DefaultTolerance, "with -compare: allowed fractional worsening per tracked value")
	obs := cliutil.Register(flag.CommandLine)
	obs.RegisterJobs(flag.CommandLine)
	serving := cliutil.RegisterServing(flag.CommandLine)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *tolerance))
	}
	if *exp != "all" {
		e, ok := experiments.ByName(*exp)
		if !ok {
			fail(fmt.Errorf("unknown experiment %q (want one of %v or all)", *exp, names))
		}
		suite = []experiments.Experiment{e}
	}
	if *chaosN > 0 && *exp != "all" && *exp != "resilience" {
		fail(fmt.Errorf("-chaos runs in the resilience experiment; use -exp resilience or all, not %q", *exp))
	}
	if obs.WantTrace() && *exp == "all" {
		fail(fmt.Errorf("-trace and -tracesummary export one experiment's recording; pick one with -exp"))
	}
	if err := obs.Start(); err != nil {
		fail(err)
	}
	reg := obs.Registry()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
	}
	params := workloads.Params{ScaleDiv: *scaleDiv, Seed: *seed}

	// The suite prepares every program its experiments read once, then
	// fans the experiments out on the -j pool against that read-only
	// set (experiments.RunSuite). Outputs, registries, and manifests
	// come back in suite order, so stdout, the BENCH_*.json files and
	// the -metrics snapshot (up to its wall-clock phase timers) are
	// bit-identical at any -j.
	pool := obs.Pool()
	outs, err := experiments.RunSuite(suite, params, experiments.WithServing(*serving),
		experiments.WithChaosSweep(*chaosN, *chaosSeed), experiments.WithMetrics(reg), experiments.WithPool(pool))
	if err != nil {
		fail(err)
	}
	if obs.WantTrace() && outs[0].Rec == nil {
		fail(fmt.Errorf("-exp %s records no trace for -trace or -tracesummary", *exp))
	}
	for i, out := range outs {
		name := suite[i].Name
		if len(suite) > 1 {
			fmt.Printf("==== %s ====\n", name)
		}
		fmt.Print(out.Text)
		// The trace flags export the one experiment's own recording.
		if err := obs.ExportTrace(os.Stdout, out.Rec); err != nil {
			fail(err)
		}
		if *outDir != "" {
			m := out.Manifest
			m.CaptureRuntime()
			path := filepath.Join(*outDir, "BENCH_"+name+".json")
			if err := m.WriteFile(path); err != nil {
				fail(err)
			}
			fmt.Printf("manifest: wrote %s\n", path)
		}
		if len(suite) > 1 {
			fmt.Println()
		}
	}
	if err := obs.Finish(os.Stdout); err != nil {
		fail(err)
	}
}

// runCompare implements the CI gate: load two manifests, diff them, and
// exit 1 when any tracked value regressed (or silently vanished), 2 on
// usage or read errors.
func runCompare(args []string, tolerance float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchsuite -compare old.json new.json [-tolerance F]")
		return 2
	}
	old, err := bench.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 2
	}
	cur, err := bench.ReadFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 2
	}
	c, err := bench.Compare(old, cur, bench.CompareOptions{Tolerance: tolerance})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 2
	}
	fmt.Print(c.Table().String())
	fmt.Println(c.Summary())
	if len(c.Regressions()) > 0 {
		return 1
	}
	return 0
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchsuite:", err)
	os.Exit(1)
}
