package experiments

// Manifest builders: every harness result converts into a
// machine-readable bench.Manifest so cmd/benchsuite can serialize one
// BENCH_<exp>.json per experiment and CI can diff runs against the
// committed baseline with `benchsuite -compare`.
//
// Only simulated quantities carry a gating direction (LowerIsBetter /
// HigherIsBetter): they are deterministic for a fixed (seed, scalediv),
// so any drift past tolerance is a real behavior change. Wall-clock and
// shape data travel as informational values (empty direction) and never
// gate.

import (
	"fmt"

	"activego/internal/bench"
	"activego/internal/plan"
	"activego/internal/workloads"
)

// Bench converts the Table I catalog into a manifest: sizes and region
// counts per application. Regions are tracked — a region-count change
// means a workload program changed underneath the benchmarks.
func (rows Table1Rows) Bench(params workloads.Params) *bench.Manifest {
	m := bench.NewManifest("table1", params.Seed, params.ScaleDiv)
	for _, r := range rows {
		w := bench.Workload{Name: r.Name}
		w.Add("regions", float64(r.Regions), "lines", bench.LowerIsBetter)
		w.Add("scaled.bytes", float64(r.ScaledBytes), "B", "")
		w.Add("paper.bytes", float64(r.PaperBytes), "B", "")
		m.Workloads = append(m.Workloads, w)
	}
	return m
}

// Bench converts the Figure 2 availability sweep: one tracked speedup
// value per swept availability, plus the crossover point.
func (r *Fig2Result) Bench(params workloads.Params) *bench.Manifest {
	m := bench.NewManifest("fig2", params.Seed, params.ScaleDiv)
	for _, name := range Fig2Workloads {
		w := bench.Workload{Name: name, Planner: "static-exhaustive"}
		for _, a := range Fig2Availabilities {
			w.Add(fmt.Sprintf("speedup@%.0f%%", a*100), r.SpeedupAt(name, a), "x", bench.HigherIsBetter)
		}
		w.Add("crossover.availability", r.Crossover(name), "", "")
		m.Workloads = append(m.Workloads, w)
	}
	return m
}

// Bench converts the Figure 4 comparison: per workload the baseline
// time and both speedups are tracked; the gap and plan match ride as
// info. The ActivePy offload set is recorded as the planner choice.
func (r *Fig4Result) Bench(params workloads.Params) *bench.Manifest {
	m := bench.NewManifest("fig4", params.Seed, params.ScaleDiv)
	for _, row := range r.Rows {
		w := bench.Workload{Name: row.Workload, Planner: row.Planner, PlanLines: row.PlanLines}
		w.Add("baseline.seconds", row.BaselineTime, "s", bench.LowerIsBetter)
		w.Add("static.speedup", row.StaticSpeedup, "x", bench.HigherIsBetter)
		w.Add("activepy.speedup", row.ActivePySpeedup, "x", bench.HigherIsBetter)
		w.Add("gap.percent", row.GapPercent, "%", "")
		w.Add("plan.match", boolVal(row.PlanMatches), "", "")
		m.Workloads = append(m.Workloads, w)
	}
	agg := bench.Workload{Name: "MEAN"}
	agg.Add("static.speedup", r.MeanStatic, "x", bench.HigherIsBetter)
	agg.Add("activepy.speedup", r.MeanActivePy, "x", bench.HigherIsBetter)
	agg.Add("plan.matches", float64(r.Matches), "", "")
	m.Workloads = append(m.Workloads, agg)
	return m
}

// Bench converts the Figure 5 migration study: the with-migration
// speedup is tracked per (workload, availability); the without-migration
// number is the deliberately bad arm and rides as info, as does whether
// the monitor fired.
func (r *Fig5Result) Bench(params workloads.Params) *bench.Manifest {
	m := bench.NewManifest("fig5", params.Seed, params.ScaleDiv)
	byName := map[string]*bench.Workload{}
	var order []string
	for _, row := range r.Rows {
		w := byName[row.Workload]
		if w == nil {
			w = &bench.Workload{Name: row.Workload, Planner: row.Planner}
			byName[row.Workload] = w
			order = append(order, row.Workload)
		}
		at := fmt.Sprintf("@%.0f%%", row.Availability*100)
		w.Add("speedup.migration"+at, row.WithMigration, "x", bench.HigherIsBetter)
		w.Add("speedup.static"+at, row.WithoutMigration, "x", "")
		w.Add("migrated"+at, boolVal(row.Migrated), "", "")
	}
	for _, name := range order {
		m.Workloads = append(m.Workloads, *byName[name])
	}
	agg := bench.Workload{Name: "SUMMARY"}
	for _, a := range Fig5Availabilities {
		at := fmt.Sprintf("@%.0f%%", a*100)
		agg.Add("migration.advantage"+at, r.MigrationAdvantage(a), "x", bench.HigherIsBetter)
		mean, max := r.LossWithoutMigration(a)
		agg.Add("loss.mean"+at, mean, "", "")
		agg.Add("loss.max"+at, max, "", "")
	}
	m.Workloads = append(m.Workloads, agg)
	return m
}

// Bench converts the prediction-accuracy study into its summary
// numbers; the per-line table stays in the text/JSON table output.
func (r *AccuracyResult) Bench(params workloads.Params) *bench.Manifest {
	m := bench.NewManifest("accuracy", params.Seed, params.ScaleDiv)
	w := bench.Workload{Name: "SUMMARY"}
	w.Add("geomean.error", r.GeoMeanError, "", bench.LowerIsBetter)
	w.Add("max.csr.overestimate", r.MaxCSROverestimate, "x", "")
	w.Add("csr.always.over", boolVal(r.CSRAlwaysOver), "", "")
	w.Add("lines.measured", float64(len(r.Lines)), "", "")
	m.Workloads = append(m.Workloads, w)
	return m
}

// Bench converts the runtime-optimization ladder: all three slowdowns
// are tracked per workload — they are pure simulated ratios.
func (r *RuntimeOptResult) Bench(params workloads.Params) *bench.Manifest {
	m := bench.NewManifest("runtimeopt", params.Seed, params.ScaleDiv)
	for _, row := range r.Rows {
		w := bench.Workload{Name: row.Workload}
		w.Add("interpreted.slowdown", row.Interpreted, "", bench.LowerIsBetter)
		w.Add("cython.slowdown", row.Cython, "", bench.LowerIsBetter)
		w.Add("native.slowdown", row.Native, "", bench.LowerIsBetter)
		m.Workloads = append(m.Workloads, w)
	}
	agg := bench.Workload{Name: "MEAN"}
	agg.Add("interpreted.slowdown", r.MeanInterp, "", bench.LowerIsBetter)
	agg.Add("cython.slowdown", r.MeanCython, "", bench.LowerIsBetter)
	agg.Add("native.slowdown", r.MeanNative, "", bench.LowerIsBetter)
	m.Workloads = append(m.Workloads, agg)
	return m
}

// Bench converts the robustness sweep: duration and completion are
// tracked per (workload, rate) — completion collapsing from 1 to 0 is
// exactly the kind of regression the gate exists for. Recovery counters
// ride as info.
func (r *RobustnessResult) Bench(params workloads.Params) *bench.Manifest {
	m := bench.NewManifest("robustness", params.Seed, params.ScaleDiv)
	byName := map[string]*bench.Workload{}
	var order []string
	for _, row := range r.Rows {
		w := byName[row.Workload]
		if w == nil {
			w = &bench.Workload{Name: row.Workload, Planner: row.Planner}
			byName[row.Workload] = w
			order = append(order, row.Workload)
		}
		at := fmt.Sprintf("@%.2f", row.Rate)
		w.Add("duration.seconds"+at, row.Duration, "s", bench.LowerIsBetter)
		w.Add("completed"+at, boolVal(row.Completed), "", bench.HigherIsBetter)
		w.Add("retries"+at, float64(row.Retries), "", "")
		w.Add("timeouts"+at, float64(row.Timeouts), "", "")
		w.Add("failed.calls"+at, float64(row.FailedCalls), "", "")
	}
	for _, name := range order {
		m.Workloads = append(m.Workloads, *byName[name])
	}
	return m
}

// Bench converts the resilience sweep: all three arms' durations and
// the breaker's advantage ratios are tracked per (workload, rate) —
// deterministic simulated quantities, so the gate catches any posture
// regression. Ladder counters ride as info; the chaos sub-run gates on
// violations (must stay 0) and the zero-fault differential match.
func (r *ResilienceResult) Bench(params workloads.Params) *bench.Manifest {
	m := bench.NewManifest("resilience", params.Seed, params.ScaleDiv)
	byName := map[string]*bench.Workload{}
	var order []string
	for _, row := range r.Rows {
		w := byName[row.Workload]
		if w == nil {
			w = &bench.Workload{Name: row.Workload, Planner: row.Planner}
			byName[row.Workload] = w
			order = append(order, row.Workload)
		}
		at := fmt.Sprintf("@%.2f", row.Rate)
		w.Add("breaker.seconds"+at, row.BreakerDur, "s", bench.LowerIsBetter)
		w.Add("static.seconds"+at, row.StaticDur, "s", "")
		w.Add("oneshot.seconds"+at, row.OneshotDur, "s", "")
		w.Add("vs.static"+at, row.VsStatic, "x", bench.HigherIsBetter)
		w.Add("vs.oneshot"+at, row.VsOneshot, "x", "")
		w.Add("completed"+at, boolVal(row.Completed), "", bench.HigherIsBetter)
		w.Add("breaker.opens"+at, float64(row.BreakerOpens), "", "")
		w.Add("breaker.closes"+at, float64(row.BreakerCloses), "", "")
		w.Add("degraded.lines"+at, float64(row.DegradedLines), "", "")
	}
	for _, name := range order {
		m.Workloads = append(m.Workloads, *byName[name])
	}
	if r.Chaos != nil {
		w := bench.Workload{Name: "CHAOS"}
		w.Add("schedules", float64(r.Chaos.Schedules), "", "")
		w.Add("completed", float64(r.Chaos.Completed), "", "")
		w.Add("clean.failures", float64(r.Chaos.CleanFailures), "", "")
		w.Add("violations", float64(len(r.Chaos.Violations)), "", bench.LowerIsBetter)
		w.Add("clean.match", boolVal(r.Chaos.CleanMatch), "", bench.HigherIsBetter)
		m.Workloads = append(m.Workloads, w)
	}
	return m
}

// Bench converts the utilization study: both traced runs' durations are
// tracked, and the stressed run must keep migrating.
func (u *UtilizationResult) Bench(params workloads.Params) *bench.Manifest {
	m := bench.NewManifest("utilization", params.Seed, params.ScaleDiv)
	w := bench.Workload{Name: u.Workload, Planner: u.Planner}
	w.Add("steady.seconds", u.Res.Duration, "s", bench.LowerIsBetter)
	w.Add("stressed.seconds", u.StressRes.Duration, "s", bench.LowerIsBetter)
	w.Add("migrated", boolVal(u.StressRes.Migrated), "", bench.HigherIsBetter)
	w.Add("stress.at.seconds", u.StressAt, "s", "")
	m.Workloads = append(m.Workloads, w)
	return m
}

// Bench converts the serving sweep: per (tenant, load) the tail
// quantiles and completion counts are tracked — deterministic simulated
// quantities, so a tail regression or a fairness collapse fails the
// gate. Offered counts and the calibrated capacity ride as info.
func (r *ServingResult) Bench(params workloads.Params) *bench.Manifest {
	m := bench.NewManifest("serving", params.Seed, params.ScaleDiv)
	byName := map[string]*bench.Workload{}
	var order []string
	for _, cell := range r.Cells {
		at := fmt.Sprintf("@%.2f", cell.Load)
		for _, tr := range cell.Res.Tenants {
			w := byName[tr.Name]
			if w == nil {
				w = &bench.Workload{Name: tr.Name}
				byName[tr.Name] = w
				order = append(order, tr.Name)
			}
			w.Add("p50.seconds"+at, tr.P50, "s", bench.LowerIsBetter)
			w.Add("p95.seconds"+at, tr.P95, "s", bench.LowerIsBetter)
			w.Add("p99.seconds"+at, tr.P99, "s", bench.LowerIsBetter)
			w.Add("completed"+at, float64(tr.Completed), "", bench.HigherIsBetter)
			w.Add("offered"+at, float64(tr.Offered), "", "")
			w.Add("shed"+at, float64(tr.Shed), "", "")
		}
	}
	for _, name := range order {
		m.Workloads = append(m.Workloads, *byName[name])
	}
	agg := bench.Workload{Name: "SUMMARY"}
	agg.Add("capacity.qps", r.CapacityQPS, "req/s", "")
	agg.Add("mean.service.seconds", r.MeanService, "s", "")
	for _, cell := range r.Cells {
		at := fmt.Sprintf("@%.2f", cell.Load)
		agg.Add("fairness"+at, cell.Res.Fairness, "", bench.HigherIsBetter)
		agg.Add("makespan.seconds"+at, cell.Res.Makespan, "s", "")
		agg.Add("shed.total"+at, float64(cell.Res.Shed), "", "")
	}
	m.Workloads = append(m.Workloads, agg)
	return m
}

// Bench converts the drift study: the burst arm must keep flagging
// stale lines and the control arm must stay clean — both directions
// gate, because either collapsing means the detector broke. Ratios and
// accounting ride as info.
func (r *DriftResult) Bench(params workloads.Params) *bench.Manifest {
	m := bench.NewManifest("drift", params.Seed, params.ScaleDiv)
	for _, arm := range []*DriftArm{&r.Control, &r.Burst} {
		w := bench.Workload{Name: arm.Name, Planner: r.Provenance.Planner}
		dir := bench.LowerIsBetter // control: stale lines must stay 0
		if arm.Burst {
			dir = bench.HigherIsBetter // burst: the detector must keep firing
		}
		w.Add("stale.lines", float64(len(arm.Stale)), "", dir)
		var diverged, checks int
		var maxRatio float64
		for _, ld := range arm.Report.Lines {
			checks += ld.Windows
			diverged += ld.Diverged
			if ld.Ratio > maxRatio {
				maxRatio = ld.Ratio
			}
		}
		w.Add("windows.checked", float64(checks), "", "")
		w.Add("windows.diverged", float64(diverged), "", "")
		w.Add("max.ratio", maxRatio, "x", "")
		w.Add("completed", float64(arm.Res.Completed), "", bench.HigherIsBetter)
		w.Add("shed", float64(arm.Res.Shed), "", "")
		m.Workloads = append(m.Workloads, w)
	}
	agg := bench.Workload{Name: "SUMMARY"}
	agg.Add("stale.offloaded.overlap", float64(r.StaleOffloadedOverlap()), "", bench.HigherIsBetter)
	agg.Add("offloaded.lines", float64(len(r.Offloaded)), "", "")
	agg.Add("solo.seconds", r.Solo, "s", "")
	agg.Add("window.seconds", r.Window, "s", "")
	m.Workloads = append(m.Workloads, agg)
	return m
}

// Bench converts the planner study. Exactness and optimal agreement
// gate: every quantity is a deterministic function of the fixtures, so
// any drift is a real planner behavior change. Node and cut counts gate
// too (LowerIsBetter) — a search that suddenly expands more nodes is a
// pruning regression even when it stays exact.
func (r *PlannerResult) Bench(params workloads.Params) *bench.Manifest {
	m := bench.NewManifest("planner", params.Seed, params.ScaleDiv)
	for _, pt := range r.Points {
		w := bench.Workload{Name: fmt.Sprintf("bnb-%dlines", pt.Lines), Planner: plan.PlannerBnB}
		w.Add("exact", boolVal(pt.Exact), "", bench.HigherIsBetter)
		w.Add("nodes", float64(pt.Nodes), "", bench.LowerIsBetter)
		w.Add("cuts.bound", float64(pt.BoundCuts), "", "")
		w.Add("cuts.neverwin", float64(pt.NeverWinCuts), "", "")
		w.Add("components", float64(pt.Components), "", "")
		w.Add("tcsd.seconds", pt.TCSD, "s", bench.LowerIsBetter)
		w.Add("greedy.tcsd.seconds", pt.GreedyTCSD, "s", "")
		w.Add("thost.seconds", pt.THost, "s", "")
		if pt.Lines <= plan.MaxOptimalLines {
			w.Add("optimal.match", boolVal(pt.OptimalMatch), "", bench.HigherIsBetter)
		}
		m.Workloads = append(m.Workloads, w)
	}
	return m
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
