// Command benchsuite regenerates the paper's evaluation: every table and
// figure of §IV/§V, printed as text tables with the same rows the paper
// plots, and optionally serialized as machine-readable benchmark
// manifests for CI's perf-regression gate.
//
// Usage:
//
//	benchsuite [-exp all|table1|fig2|fig4|fig5|accuracy|runtimeopt|robustness|resilience|utilization|serving|drift|planner]
//	           [-scalediv N] [-seed S] [-outdir DIR] [-metrics out.json]
//	           [-tenants N] [-arrival poisson|bursty|uniform|closed] [-qps Q] [-duration D]
//	           [-httpmon addr] [-pprof cpu.pb] [-memprofile mem.pb]
//	           [-trace out.json] [-tracesummary]
//	benchsuite -compare old.json new.json [-tolerance 0.10]
//
// Inputs are synthesized at 1/scalediv of Table I's sizes (default 512,
// ~10-18 MB per application); the shape of every result — who wins, by
// what factor, where crossovers fall — is the reproduction target, not
// absolute times.
//
// With -outdir, every experiment additionally writes BENCH_<exp>.json: a
// schema-versioned manifest of its simulated results, planner choices,
// metrics snapshot, and Go runtime stats (see internal/bench and
// DESIGN.md §10). -compare diffs two manifests benchstat-style and exits
// nonzero when a tracked value worsened past the tolerance — the CI gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"activego/internal/bench"
	"activego/internal/cliutil"
	"activego/internal/experiments"
	"activego/internal/metrics"
	"activego/internal/par"
	"activego/internal/workloads"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, fig2, fig4, fig5, accuracy, runtimeopt, robustness, resilience, utilization, serving, drift, planner")
	chaosN := flag.Int("chaos", 0, "run N extra randomized chaos fault schedules after the resilience experiment (0 = just the built-in sub-run)")
	chaosSeed := flag.Uint64("chaos-seed", experiments.ResilienceSeed, "seed for the -chaos schedule sweep")
	scaleDiv := flag.Int64("scalediv", 512, "divide Table I input sizes by this factor")
	seed := flag.Int64("seed", 42, "generator seed")
	outDir := flag.String("outdir", "", "write one BENCH_<exp>.json benchmark manifest per experiment into this directory")
	compare := flag.Bool("compare", false, "compare two manifests: benchsuite -compare old.json new.json; exit 1 on regression")
	tolerance := flag.Float64("tolerance", bench.DefaultTolerance, "with -compare: allowed fractional worsening per tracked value")
	obs := cliutil.Register(flag.CommandLine)
	obs.RegisterMonitor(flag.CommandLine)
	serving := cliutil.RegisterServing(flag.CommandLine)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *tolerance))
	}
	if err := obs.Start(); err != nil {
		fail(err)
	}
	if addr, err := obs.StartMonitor(); err != nil {
		fail(err)
	} else if addr != "" {
		fmt.Printf("httpmon: serving expvar, pprof, and /metrics on http://%s\n", addr)
	}
	reg := obs.Registry()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
	}
	params := workloads.Params{ScaleDiv: *scaleDiv, Seed: *seed}
	// A runner prints its tables to out (captured per experiment so -j N
	// interleaves nothing) and records into sub, its private registry
	// slice (nil when metrics are off; merged into reg in suite order).
	runners := map[string]func(mopts []experiments.Option, sub *metrics.Registry, out io.Writer) (*bench.Manifest, error){
		"table1": func(mopts []experiments.Option, _ *metrics.Registry, out io.Writer) (*bench.Manifest, error) {
			rows, tbl, err := experiments.Table1(params, mopts...)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(out, tbl.String())
			return experiments.BenchTable1(rows, params), nil
		},
		"fig2": func(mopts []experiments.Option, _ *metrics.Registry, out io.Writer) (*bench.Manifest, error) {
			res, tbl, err := experiments.Fig2(params, mopts...)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(out, tbl.String())
			return res.Bench(params), nil
		},
		"fig4": func(mopts []experiments.Option, _ *metrics.Registry, out io.Writer) (*bench.Manifest, error) {
			res, tbl, err := experiments.Fig4(params, mopts...)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(out, tbl.String())
			return res.Bench(params), nil
		},
		"fig5": func(mopts []experiments.Option, _ *metrics.Registry, out io.Writer) (*bench.Manifest, error) {
			res, tbl, err := experiments.Fig5(params, mopts...)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(out, tbl.String())
			return res.Bench(params), nil
		},
		"accuracy": func(mopts []experiments.Option, _ *metrics.Registry, out io.Writer) (*bench.Manifest, error) {
			res, tbl, err := experiments.Accuracy(params, mopts...)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(out, tbl.String())
			return res.Bench(params), nil
		},
		"runtimeopt": func(mopts []experiments.Option, _ *metrics.Registry, out io.Writer) (*bench.Manifest, error) {
			res, tbl, err := experiments.RuntimeOpt(params, mopts...)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(out, tbl.String())
			return res.Bench(params), nil
		},
		"robustness": func(mopts []experiments.Option, _ *metrics.Registry, out io.Writer) (*bench.Manifest, error) {
			res, tbl, err := experiments.Robustness(params, mopts...)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(out, tbl.String())
			return res.Bench(params), nil
		},
		"resilience": func(mopts []experiments.Option, sub *metrics.Registry, out io.Writer) (*bench.Manifest, error) {
			res, tbl, err := experiments.Resilience(params, mopts...)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(out, tbl.String())
			if res.Chaos != nil {
				fmt.Fprintln(out, res.Chaos.Summary())
			}
			res.Rec.Fold(sub)
			return res.Bench(params), nil
		},
		"serving": func(mopts []experiments.Option, sub *metrics.Registry, out io.Writer) (*bench.Manifest, error) {
			mopts = append(mopts, experiments.WithServing(experiments.ServingOverrides{
				Tenants:  serving.Tenants,
				Arrival:  serving.Arrival,
				QPS:      serving.QPS,
				Duration: serving.Duration,
			}))
			res, tbl, err := experiments.Serving(params, mopts...)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(out, tbl.String())
			fmt.Fprintf(out, "capacity: %.1f req/s (mix-weighted solo service %.4fs)\n",
				res.CapacityQPS, res.MeanService)
			res.Rec.Fold(sub)
			return res.Bench(params), nil
		},
		"planner": func(mopts []experiments.Option, _ *metrics.Registry, out io.Writer) (*bench.Manifest, error) {
			res, tbl, err := experiments.Planner(params, mopts...)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(out, tbl.String())
			fmt.Fprintf(out, "cache: %d/%d builds served warm (%.1f%% hit rate, identical=%t)\n",
				res.Cache.Hits, res.Cache.Builds, 100*res.Cache.HitRate, res.Cache.HitIdentical)
			return res.Bench(params), nil
		},
		"drift": func(mopts []experiments.Option, _ *metrics.Registry, out io.Writer) (*bench.Manifest, error) {
			res, tbl, err := experiments.Drift(params, mopts...)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(out, tbl.String())
			fmt.Fprintf(out, "stale: control %v, burst %v of offloaded %v (overlap %d)\n",
				res.Control.Stale, res.Burst.Stale, res.Offloaded, res.StaleOffloadedOverlap())
			return res.Bench(params), nil
		},
		"utilization": func(mopts []experiments.Option, sub *metrics.Registry, out io.Writer) (*bench.Manifest, error) {
			u, tbl, err := experiments.Utilization(params, mopts...)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(out, tbl.String())
			fmt.Fprintln(out)
			fmt.Fprint(out, u.MigrationTimeline().String())
			// The trace flags apply to the study's own steady-state
			// recorder — the run worth a timeline — not a top-level one.
			if obs.Trace != "" {
				f, err := os.Create(obs.Trace)
				if err != nil {
					return nil, err
				}
				err = u.Rec.WriteChrome(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(out, "trace: wrote %s (open in Perfetto or chrome://tracing)\n", obs.Trace)
			}
			if obs.TraceSummary {
				fmt.Fprintf(out, "\n%s", u.Rec.Summary())
			}
			u.Rec.Fold(sub)
			return u.Bench(params), nil
		},
	}
	order := []string{"table1", "fig2", "fig4", "fig5", "accuracy", "runtimeopt", "robustness", "resilience", "utilization", "serving", "drift", "planner"}

	names := order
	if *exp != "all" {
		if _, ok := runners[*exp]; !ok {
			fail(fmt.Errorf("unknown experiment %q (want one of %v or all)", *exp, order))
		}
		names = []string{*exp}
	}

	// Independent experiments fan out on the -j pool; each runner's
	// output, sub-registry, and manifest are folded back in suite order,
	// so stdout, the cumulative metrics snapshots attached to manifests,
	// and the BENCH_*.json files are bit-identical at any -j.
	pool := obs.Pool()
	type expOut struct {
		manifest *bench.Manifest
		output   string
		sub      *metrics.Registry
	}
	outs, err := par.Map(pool, len(names), func(i int) (expOut, error) {
		var buf strings.Builder
		var sopts []experiments.Option
		var sub *metrics.Registry
		if reg != nil {
			sub = metrics.New()
			sopts = append(sopts, experiments.WithMetrics(sub))
		}
		if pool != nil {
			sopts = append(sopts, experiments.WithPool(pool))
		}
		m, err := runners[names[i]](sopts, sub, &buf)
		if err != nil {
			return expOut{}, err
		}
		return expOut{manifest: m, output: buf.String(), sub: sub}, nil
	})
	if err != nil {
		fail(err)
	}
	for i, out := range outs {
		name := names[i]
		if len(names) > 1 {
			fmt.Printf("==== %s ====\n", name)
		}
		fmt.Print(out.output)
		reg.Merge(out.sub)
		if *outDir != "" {
			m := out.manifest
			if reg != nil {
				snap := reg.Snapshot()
				m.Metrics = &snap
			}
			m.CaptureRuntime()
			path := filepath.Join(*outDir, "BENCH_"+name+".json")
			if err := m.WriteFile(path); err != nil {
				fail(err)
			}
			fmt.Printf("manifest: wrote %s\n", path)
		}
		if len(names) > 1 {
			fmt.Println()
		}
	}
	if *chaosN > 0 {
		rep, err := experiments.ChaosSweep(params, *chaosSeed, *chaosN, chaosOpts(reg, pool)...)
		if err != nil {
			fail(err)
		}
		fmt.Println(rep.Summary())
		if !rep.Ok() {
			fail(fmt.Errorf("chaos sweep violated an invariant"))
		}
	}
	if err := obs.Finish(os.Stdout); err != nil {
		fail(err)
	}
}

// chaosOpts forwards the suite's observability to the -chaos sweep.
func chaosOpts(reg *metrics.Registry, pool *par.Pool) []experiments.Option {
	var opts []experiments.Option
	if reg != nil {
		opts = append(opts, experiments.WithMetrics(reg))
	}
	if pool != nil {
		opts = append(opts, experiments.WithPool(pool))
	}
	return opts
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
