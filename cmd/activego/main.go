// Command activego runs a workload (or a mini-language source file)
// through the full ActivePy pipeline on the simulated platform and prints
// the sampling-phase plan plus an execution comparison against the
// baseline configurations.
//
// Usage:
//
//	activego -workload tpch-6 [-scalediv N] [-seed S] [-availability F] [-no-migration]
//	         [-profile] [-j N] [-planner P] [-obswindow W]
//	         [-trace out.json] [-tracesummary] [-metrics out.json]
//	         [-pprof cpu.pb] [-memprofile mem.pb]
//	activego -workload tpch-6 -serve [-tenants N] [-arrival P] [-qps Q] [-duration D]
//	activego -list
//	activego vet program.apy...          # static analysis / lint
//	activego vet -workloads              # lint every embedded workload
//	activego explain -workload tpch-6    # plan provenance: per-line Eq. 1 terms and verdicts
//	activego explain -workload tpch-6 -run   # ... plus observed costs and drift cross-links
package main

import (
	"flag"
	"fmt"
	"os"

	"activego/internal/analysis"
	"activego/internal/baseline"
	"activego/internal/cliutil"
	"activego/internal/codegen"
	"activego/internal/core"
	"activego/internal/driver"
	"activego/internal/experiments"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/profile"
	"activego/internal/workloads"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		os.Exit(runVet(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		os.Exit(runExplain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload name (see -list)")
	list := flag.Bool("list", false, "list available workloads")
	scaleDiv := flag.Int64("scalediv", 512, "divide Table I input sizes by this factor")
	seed := flag.Int64("seed", 42, "generator seed")
	avail := flag.Float64("availability", 1.0, "fraction of CSE time available (0,1]")
	noMigration := flag.Bool("no-migration", false, "disable dynamic task migration")
	showProfile := flag.Bool("profile", false, "print the sampling-phase curve fits per line")
	serve := flag.Bool("serve", false, "drive a multi-tenant serving run of the workload (DESIGN.md §14) instead of one pipeline pass")
	obs := cliutil.Register(flag.CommandLine)
	obs.RegisterJobs(flag.CommandLine)
	obs.RegisterPlanner(flag.CommandLine)
	obs.RegisterObsWindow(flag.CommandLine)
	srv := cliutil.RegisterServing(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, s := range workloads.All() {
			fmt.Printf("%-13s %s\n", s.Name, s.Description)
		}
		return
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "activego: -workload required (or -list)")
		os.Exit(2)
	}
	spec, ok := workloads.ByName(*workload)
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	params := workloads.Params{ScaleDiv: *scaleDiv, Seed: *seed}
	if *serve {
		if err := runServe(spec.Name, params, obs, *srv, uint64(*seed)); err != nil {
			fail(err)
		}
		return
	}
	inst := spec.Build(params)

	if err := obs.Start(); err != nil {
		fail(err)
	}
	p := platform.Default()
	if *avail < 1 {
		p.Dev.SetAvailability(*avail)
	}
	if rec := obs.Recorder(); rec != nil {
		p.SetRecorder(rec)
	}
	rt := core.New(p)
	rt.SampleScales = profile.ScaledScales
	rt.Metrics = obs.Registry()
	rt.Pool = obs.Pool()
	rt.Planner = obs.Planner
	rt.PreloadInputs(inst.Registry)

	cfg := core.DefaultConfig()
	cfg.Migration = !*noMigration
	cfg.OverheadScale = params.OverheadScale()
	cfg.ObsWindow = obs.ObsWindow

	fmt.Printf("workload %s: %s (%.1f MB input, paper: %.1f GB)\n",
		spec.Name, spec.Description,
		float64(inst.Registry.TotalBytes())/(1<<20), float64(spec.PaperBytes)/(1<<30))
	fmt.Printf("platform: %d host cores @%.1f GHz-equiv, %d CSE cores (C=%.2f), link %.1f GB/s, array %.1f GB/s\n",
		p.Cfg.Host.Cores, p.Cfg.Host.Rate/1e9, p.Cfg.CSD.CSECores, rt.Machine.C,
		rt.Machine.D2HBW/1e9, rt.Machine.FlashBW/1e9)

	out, err := rt.Run(inst.Source, inst.Registry, cfg)
	if err != nil {
		fail(err)
	}
	if err := inst.Check(out.Env); err != nil {
		fail(fmt.Errorf("correctness check: %w", err))
	}
	fmt.Printf("\n%s\n", out.Plan.Describe())
	if *showProfile {
		fmt.Println("sampling-phase curve fits:")
		for _, lp := range out.Profile.Lines {
			fmt.Printf("  line %2d: host-work %v, bytes-out %v\n", lp.Line, lp.Models[0], lp.Models[5])
		}
	}
	fmt.Printf("activepy: %.4f ms (migrated=%v, %d CSD / %d host line executions)\n",
		out.Exec.Duration*1e3, out.Exec.Migrated, out.Exec.RecordsOnCSD, out.Exec.RecordsOnHost)

	p.FoldMetrics(obs.Registry())
	if err := obs.Finish(os.Stdout); err != nil {
		fail(err)
	}

	base, err := baseline.RunHostOnly(platform.Default(), out.Trace, codegen.C)
	if err != nil {
		fail(err)
	}
	fmt.Printf("c-baseline (no ISP): %.4f ms -> activepy speedup %.3fx\n",
		base.Duration*1e3, base.Duration/out.Exec.Duration)

	part, bestT, err := baseline.Search(platform.DefaultConfig(), out.Trace)
	if err != nil {
		fail(err)
	}
	fmt.Printf("programmer-directed static ISP: lines %v, %.4f ms (%.3fx); plan match: %v\n",
		part.Lines(), bestT*1e3, base.Duration/bestT, part.Equal(out.Plan.Partition))
	fmt.Println("\nresult correctness: OK (matches the reference Go implementation)")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "activego:", err)
	os.Exit(1)
}

// runServe is the -serve mode: build the workload once as a serving
// scenario and serve it to two Poisson tenants, tenant0 and tenant1, at
// one long-lived platform. The serving study's calibration and builder
// resolve the rest, so the serving flags mean what they mean on every
// command: the offered rate is the calibrated capacity and the horizon
// is sized for ServingRequestTarget requests.
func runServe(name string, params workloads.Params, obs *cliutil.Flags,
	srv experiments.ServingOverrides, seed uint64) error {
	if err := obs.Start(); err != nil {
		return err
	}
	sc, err := driver.Build(name, params)
	if err != nil {
		return err
	}
	scenarios := map[string]*driver.Scenario{name: sc}
	mix := []driver.Weighted{{Name: name, Weight: 1}}
	poisson := driver.Arrival{Process: driver.Poisson}
	templates := []experiments.ServingTenantSpec{
		{Name: "tenant0", Weights: mix, Arrival: poisson},
		{Name: "tenant1", Weights: mix, Arrival: poisson},
	}
	solo, err := experiments.ServingCalibrate(templates, scenarios, srv)
	if err != nil {
		return err
	}
	qps := srv.Capacity(solo)
	tenants, horizon, err := experiments.ServingTraffic(templates, scenarios, srv, qps, solo)
	if err != nil {
		return err
	}
	p := platform.Default()
	if rec := obs.Recorder(); rec != nil {
		p.SetRecorder(rec)
	}
	fmt.Printf("serving %s: %d tenants, %s arrivals, %.1f req/s offered over %.4fs (solo service %.4fs)\n",
		name, len(tenants), tenants[0].Arrival.Process, qps, horizon, solo)
	res, err := driver.Run(p, driver.Config{
		Seed: seed, Duration: horizon, Tenants: tenants,
		MaxInFlight: experiments.ServingMaxInFlight, MaxQueue: experiments.ServingMaxQueue,
		Metrics: obs.Registry(), ObsWindow: obs.ObsWindow,
	})
	if err != nil {
		return err
	}
	cliutil.PrintServing(os.Stdout, res)
	p.FoldMetrics(obs.Registry())
	return obs.Finish(os.Stdout)
}

// runExplain implements `activego explain`: render a workload's plan
// provenance — the per-line Equation 1 terms, pin/prune verdicts, and
// the projected-vs-all-host totals the placement was argued from — as a
// table or JSON. With -run the workload also executes under windowed
// observation and the table grows the drift cross-link columns
// (observed cost per invocation, worst ratio, staleness).
func runExplain(args []string) int {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name (see activego -list)")
	scaleDiv := fs.Int64("scalediv", 512, "divide Table I input sizes by this factor")
	seed := fs.Int64("seed", 42, "generator seed")
	asJSON := fs.Bool("json", false, "emit the explain record as indented JSON")
	runIt := fs.Bool("run", false, "also execute the workload under windowed observation and cross-link drift columns")
	window := fs.Float64("obswindow", 0, "observation window for -run in simulated seconds (0 = 1/16 of the projected runtime)")
	planner := fs.String("planner", "", "planning algorithm: "+plan.PlannerChoices+" (DESIGN.md §16); empty = bnb, the exact planner")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: activego explain -workload NAME [-scalediv N] [-seed S] [-json] [-planner P] [-run [-obswindow W]]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if *workload == "" {
		fs.Usage()
		return 2
	}
	err := cliutil.Explain(os.Stdout, cliutil.ExplainOptions{
		Workload: *workload,
		ScaleDiv: *scaleDiv,
		Seed:     *seed,
		JSON:     *asJSON,
		Run:      *runIt,
		Window:   *window,
		Planner:  *planner,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "activego explain:", err)
		return 1
	}
	return 0
}

// runVet implements `activego vet`: the static-analysis lint surface.
// Diagnostics print one per line in the machine-readable form
// `file:line: CODE: message [severity]`, or as a JSON array with -json.
// Exit status: 0 when every file is clean or carries only warnings
// unless -werror, 1 when any error-severity diagnostic (or, with
// -werror, any diagnostic) fired, 2 on usage, read, or parse failures.
//
// With -workloads the targets are the embedded workload programs, and
// the lint runs the real pipeline's sampling phase too, so the
// dynamic-input advisories (AV009 bound-vs-fit contradictions, AV011
// never-win offloads) appear alongside the static catalogue.
func runVet(args []string) int {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	werror := fs.Bool("werror", false, "treat warnings as errors")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array")
	overWorkloads := fs.Bool("workloads", false, "lint every embedded workload program instead of files")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: activego vet [-werror] [-json] program.apy...")
		fmt.Fprintln(os.Stderr, "       activego vet [-werror] [-json] -workloads")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)

	type target struct{ name, src string }
	var targets []target
	var vetDynamic func(src string, name string) ([]analysis.Diagnostic, error)
	if *overWorkloads {
		// Workload programs come with their inputs, so the sampling-phase
		// advisories are computable: vet them through the real pipeline.
		insts := map[string]*workloads.Instance{}
		for _, spec := range workloads.All() {
			inst := spec.Build(workloads.TestParams())
			name := "workload:" + spec.Name
			targets = append(targets, target{name: name, src: inst.Source})
			insts[name] = inst
		}
		vetDynamic = func(src, name string) ([]analysis.Diagnostic, error) {
			return core.ForWorkload(insts[name]).Vet(src, insts[name].Registry)
		}
	} else {
		if fs.NArg() == 0 {
			fs.Usage()
			return 2
		}
		for _, path := range fs.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "activego vet:", err)
				return 2
			}
			targets = append(targets, target{name: path, src: string(src)})
		}
	}

	status := 0
	var all []analysis.FileDiagnostic
	for _, tg := range targets {
		var diags []analysis.Diagnostic
		var err error
		if vetDynamic != nil {
			diags, err = vetDynamic(tg.src, tg.name)
		} else {
			diags, err = analysis.LintSource(tg.src)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "activego vet: %s: %v\n", tg.name, err)
			return 2
		}
		for _, d := range diags {
			if *asJSON {
				all = append(all, analysis.FileDiagnostic{File: tg.name, Diag: d})
			} else {
				fmt.Printf("%s [%s]\n", d.Format(tg.name), d.Severity)
			}
		}
		if analysis.HasErrors(diags) || (*werror && len(diags) > 0) {
			status = 1
		}
	}
	if *asJSON {
		if err := analysis.WriteJSON(os.Stdout, all); err != nil {
			fmt.Fprintln(os.Stderr, "activego vet:", err)
			return 2
		}
	}
	return status
}
