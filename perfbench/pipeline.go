package main

import (
	"fmt"
	"strings"

	"activego/internal/analysis"
	"activego/internal/baseline"
	"activego/internal/codegen"
	"activego/internal/core"
	"activego/internal/exec"
	"activego/internal/inputs"
	"activego/internal/lang/interp"
	"activego/internal/lang/parser"
	"activego/internal/lang/value"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/profile"
	"activego/internal/workloads"
)

// contendedAvail is the CSE availability the Fig. 5 co-tenant leaves
// once it arrives at the clean run's midpoint.
const contendedAvail = 0.1

// pipeline is the cold closed-loop workload: one client, and one op is
// one pass over the ten embedded programs in catalogue order, each taken
// through the whole ActivePy pipeline the way core.Runtime.Run takes it.
type pipeline struct {
	params workloads.Params
	insts  []*workloads.Instance
	last   []progRun // the latest op's programs, for the fidelity gate
	// corrupt, when set, overwrites one program output before its check,
	// so the benchmark's own tests can see the check fail.
	corrupt bool
}

// progRun is one program's results within one pass.
type progRun struct {
	name      string
	partition codegen.Partition
	planner   string
	clean     *exec.Result // ActivePy with the §III-D monitor
	contended *exec.Result // the same under the Fig. 5 co-tenant
	base      *exec.Result // host-only C baseline
	cseUtil   float64      // of the clean run's platform
	d2hUtil   float64
	env       *interp.Env
	check     func(*interp.Env) error
}

func newPipeline(params workloads.Params, corrupt bool) *pipeline {
	p := &pipeline{params: params, corrupt: corrupt}
	for _, spec := range workloads.All() {
		p.insts = append(p.insts, spec.Build(params))
	}
	return p
}

// coreConfig is the runtime configuration the pass reproduces: the full
// ActivePy runtime at the instances' overhead scale.
func (p *pipeline) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.OverheadScale = p.params.OverheadScale()
	return cfg
}

// checkFidelity runs core.Runtime.Run on every program and requires the
// latest pass's layer-by-layer sequence to have produced the same
// partition, planner label and simulated duration, so the runner cannot
// drift into measuring a different program.
func (p *pipeline) checkFidelity() error {
	cfg := p.coreConfig()
	for i, inst := range p.insts {
		rt := core.New(platform.Default())
		rt.SampleScales = profile.ScaledScales
		rt.PreloadInputs(inst.Registry)
		out, err := rt.Run(inst.Source, inst.Registry, cfg)
		if err != nil {
			return fmt.Errorf("fidelity: %s: core: %w", inst.Name, err)
		}
		r := p.last[i]
		switch {
		case !out.Plan.Partition.Equal(r.partition):
			return fmt.Errorf("fidelity: %s: partition %v, core %v", inst.Name, r.partition.Lines(), out.Plan.Partition.Lines())
		case out.Plan.Planner != r.planner:
			return fmt.Errorf("fidelity: %s: planner %q, core %q", inst.Name, r.planner, out.Plan.Planner)
		case out.Exec.Duration != r.clean.Duration:
			return fmt.Errorf("fidelity: %s: exec %.9gs, core %.9gs", inst.Name, r.clean.Duration, out.Exec.Duration)
		}
	}
	return nil
}

// preloaded builds a default platform with the instance's inputs placed
// on the device, as core.Runtime.PreloadInputs does.
func preloaded(reg *inputs.Registry) *platform.Platform {
	p := platform.Default()
	for _, name := range reg.Names() {
		e, _ := reg.Get(name)
		p.Dev.Store.Preload(name, e.Value.SizeBytes())
	}
	return p
}

// runProgram takes one program through the pipeline.
func (p *pipeline) runProgram(tr *tracer, inst *workloads.Instance, c *counts) (progRun, error) {
	r := progRun{name: inst.Name, check: inst.Check}
	fail := func(stage string, err error) (progRun, error) {
		return r, fmt.Errorf("%s: %s: %w", inst.Name, stage, err)
	}

	s := tr.begin("platform")
	plats := [3]*platform.Platform{preloaded(inst.Registry), preloaded(inst.Registry), preloaded(inst.Registry)}
	m := plan.MachineFromPlatform(plats[0])
	tr.end(s)
	c.add("platform.calls", 3)

	s = tr.begin("parser")
	prog, err := parser.Parse(inst.Source)
	tr.end(s)
	if err != nil {
		return fail("parse", err)
	}
	s = tr.begin("analysis")
	static, err := analysis.Analyze(prog)
	tr.end(s)
	if err != nil {
		return fail("analysis", err)
	}

	s = tr.begin("profile")
	rep, err := profile.RunScalesPool(prog, inst.Registry, profile.ScaledScales, nil, nil)
	tr.end(s)
	if err != nil {
		return fail("sampling", err)
	}
	c.add("profile.sample_runs", float64(len(profile.ScaledScales)))

	s = tr.begin("plan")
	planRes, stats, free := planLikeCore(static, rep, m)
	tr.end(s)
	c.add("plan.free_lines", float64(free))
	c.add("plan.bnb_nodes", float64(stats.Nodes))
	c.add("plan.csd_lines", float64(len(planRes.Partition.Lines())))
	r.partition, r.planner = planRes.Partition, planRes.Planner

	s = tr.begin("interp")
	trace, env, err := interp.Run(prog, inst.Registry.Context(1))
	tr.end(s)
	if err != nil {
		return fail("full-scale run", err)
	}
	c.add("interp.records", float64(len(trace.Records)))
	r.env = env

	opts := exec.Options{
		Backend:          codegen.Native,
		Partition:        planRes.Partition,
		Estimates:        planRes.ByLine(),
		Migration:        exec.DefaultMigration(),
		SamplingOverhead: core.SamplingOverhead,
		OverheadScale:    p.params.OverheadScale(),
		UseCallQueue:     true,
		Analysis:         static,
	}
	s = tr.begin("exec")
	r.clean, err = exec.Run(plats[0], trace, opts)
	if err == nil {
		plats[1].Dev.ScheduleStress(progressAt(r.clean, 0.5), contendedAvail, 0)
		r.contended, err = exec.Run(plats[1], trace, opts)
	}
	if err == nil {
		r.base, err = baseline.RunHostOnly(plats[2], trace, codegen.C)
	}
	tr.end(s)
	if err != nil {
		return fail("exec", err)
	}
	r.cseUtil = plats[0].Dev.CSE.Utilization()
	r.d2hUtil = plats[0].Topo.D2H.Utilization()
	for _, res := range []*exec.Result{r.clean, r.contended, r.base} {
		c.add("exec.d2h_mb", res.D2HBytes/1e6)
		if res.Migrated {
			c.add("exec.migrations", 1)
		}
		c.add("exec.retries", float64(res.Retries))
		c.add("exec.timeouts", float64(res.Timeouts))
		c.add("exec.failed_calls", float64(res.FailedCalls))
	}
	for _, pl := range plats {
		c.add("sim.events", float64(pl.Sim.EventsFired()))
		sub, _ := pl.Dev.QP.Stats()
		c.add("machine.nvme_submitted", float64(sub))
		reads, _, _, _, _ := pl.Dev.Array.Stats()
		c.add("machine.flash_reads", float64(reads))
		c.fingerprint(pl.Fingerprint())
	}
	return r, nil
}

// planLikeCore is the planning step of core.Runtime.Run: Equation 1
// estimates, legality pins, the AV009 cross-check, AV011 never-win pins,
// the auto planner with no plan cache, and the provenance record. It
// returns the plan, the branch-and-bound effort, and the number of lines
// left free for the planner.
func planLikeCore(static *analysis.Report, rep *profile.Report, m plan.Machine) (*plan.Result, plan.BnBStats, int) {
	estimates := plan.BuildEstimates(rep.Predictions(), m, codegen.Native)
	cons := plan.Constraints{HostOnly: static.HostPinned()}
	var ms []analysis.Measured
	for _, pr := range rep.Predictions() {
		ms = append(ms, analysis.Measured{Line: pr.Line, Execs: pr.Execs})
	}
	static.CheckMeasured(ms)
	pruned := plan.NeverWin(estimates, m)
	for _, pr := range pruned {
		if _, pinned := cons.HostOnly[pr.Line]; !pinned {
			cons.HostOnly[pr.Line] = pr.Reason
		}
	}
	free := 0
	for i := range estimates {
		if _, pinned := cons.Pinned(estimates[i].Line); !pinned {
			free++
		}
	}
	var stats plan.BnBStats
	res := plan.AutoPool(estimates, cons, m, nil, plan.DefaultBnBNodeBudget, &stats)
	res.Provenance = plan.BuildProvenance(res, cons, pruned, m)
	return res, stats, free
}

// progressAt is the instant the run's offloaded work reached the given
// fraction of its progress, interpolated between line boundaries; Fig. 5's
// co-tenant arrives at 0.5. With nothing offloaded it is that fraction of
// the run's duration.
func progressAt(res *exec.Result, frac float64) float64 {
	prevT, prevF := res.Start, 0.0
	for _, pr := range res.CSDProgress {
		if pr.Frac >= frac {
			if pr.Frac == prevF {
				return pr.Time
			}
			return prevT + (frac-prevF)/(pr.Frac-prevF)*(pr.Time-prevT)
		}
		prevT, prevF = pr.Time, pr.Frac
	}
	return res.Start + res.Duration*frac
}

func (p *pipeline) describe() string {
	return fmt.Sprintf("pipeline: closed loop, one client; one op is one cold pass over %d programs at scalediv %d, seed %d",
		len(p.insts), p.params.ScaleDiv, p.params.Seed)
}

// op runs one pass. Program outputs are checked against the reference
// implementations afterwards, outside the timed span.
func (p *pipeline) op(tr *tracer) (*outcome, error) {
	c := newCounts()
	runs := make([]progRun, 0, len(p.insts))
	for _, inst := range p.insts {
		r, err := p.runProgram(tr, inst, c)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	p.last = runs
	return p.summarize(runs, c), nil
}

func (p *pipeline) summarize(runs []progRun, c *counts) *outcome {
	var speedup, contended, clean, cse, d2h []float64
	var digest strings.Builder
	for _, r := range runs {
		speedup = append(speedup, r.base.Duration/r.clean.Duration)
		contended = append(contended, r.base.Duration/r.contended.Duration)
		clean = append(clean, r.clean.Duration)
		cse = append(cse, r.cseUtil)
		d2h = append(d2h, r.d2hUtil)
		fmt.Fprintf(&digest, "%s %v %s %v %v %v;", r.name, r.partition.Lines(), r.planner,
			r.clean.Duration, r.contended.Duration, r.base.Duration)
	}
	c.set("machine.cse_util", mean(cse))
	c.set("machine.d2h_util", mean(d2h))
	// A pass has ten program latencies, so no percentile has ten samples
	// beyond it: the tail reported is the pass itself, the simulated time
	// the closed-loop client waits for its ten programs back to back.
	out := &outcome{
		units: len(runs),
		sim: map[string]float64{
			"sim_speedup":           geomean(speedup),
			"sim_speedup_contended": geomean(contended),
			"sim_p50_s":             nearestRank(clean, 0.50),
			"sim_p99_s":             sum(clean),
		},
		counts: c,
		digest: digest.String(),
		notes: map[string]string{
			"sim_p50_s": "median program of the pass, nearest rank",
			"sim_p99_s": "the whole pass: ten programs back to back",
		},
	}
	out.check = func() (int, error) {
		good := 0
		var errs []string
		for i, r := range runs {
			env := r.env
			if p.corrupt && i == 0 {
				env = corruptEnv(env)
			}
			if err := r.check(env); err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", r.name, err))
				continue
			}
			good++
		}
		if len(errs) > 0 {
			return good, fmt.Errorf("reference check failed: %s", strings.Join(errs, "; "))
		}
		return good, nil
	}
	return out
}

// corruptEnv returns a copy of env with every float output nudged, so a
// reference check against it must fail.
func corruptEnv(env *interp.Env) *interp.Env {
	bad := interp.NewEnv()
	for _, name := range env.Names() {
		v, _ := env.Get(name)
		bad.Set(name, corruptValue(v))
	}
	return bad
}

// corruptValue returns a wrong copy of a program value.
func corruptValue(v value.Value) value.Value {
	bump := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x*1.5 + 1
		}
		return out
	}
	switch x := v.(type) {
	case value.Float:
		return value.Float(float64(x)*1.5 + 1)
	case value.Int:
		return x + 1
	case *value.Vec:
		return value.NewVec(bump(x.Data))
	case *value.Mat:
		return &value.Mat{Rows: x.Rows, Cols: x.Cols, Data: bump(x.Data)}
	}
	return v
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
