package experiments

import (
	"fmt"

	"activego/internal/driver"
	"activego/internal/metrics"
	"activego/internal/obs"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/report"
	"activego/internal/workloads"
)

// The drift study (ours — no paper counterpart): the planner's placement
// is argued from curves fitted once, at sampling time, but a deployed
// CSD serves for hours while co-tenants come and go. This study runs a
// serving load over one scenario while a Figure 5-style availability
// burst takes the CSE mid-run, and shows the §15 drift detector doing
// its job: the offloaded lines whose real costs the burst inflates — the
// same lines the fig5 migration monitor moves — go model-stale (AV012),
// while a burst-free control arm stays quiet.

// DriftSeed keys the arrival streams; one seed makes both arms
// bit-reproducible.
const DriftSeed uint64 = 29

// DriftWorkload is the served scenario: TPC-H Q6, the same canonical
// offload case Figure 5 stresses and records, so the stale set can be
// cross-checked against the lines migration actually moves.
const DriftWorkload = Fig5TraceWorkload

var driftPrograms = Programs{Names: []string{DriftWorkload}}

// DriftAvailability is the burst's CSE availability — Figure 5's
// harsher contention level, where offloaded compute inflates ~10x.
const DriftAvailability = 0.1

// DriftLoad is the offered load as a fraction of the solo serial
// capacity (MaxInFlight is 1, so capacity is 1/solo): high enough to
// fill windows, low enough that the control arm never queues its way
// into false staleness.
const DriftLoad = 0.8

// DriftArm is one arm's outcome: the serving accounting, the scored
// drift report, and its stale-line set.
type DriftArm struct {
	Name   string
	Burst  bool
	Res    *driver.Result
	Report *obs.DriftReport
	Stale  []int
}

// DriftResult is the full two-arm study.
type DriftResult struct {
	Workload string
	// Solo is the scenario's calibrated warm service time; Window the
	// observation window (2x solo); BurstAt the stress arrival instant
	// (simulated seconds from start).
	Solo    float64
	Window  float64
	BurstAt float64
	// Offloaded is the plan's CSD line set (from provenance), the ground
	// truth the stale set is checked against.
	Offloaded  []int
	Provenance *plan.Provenance
	Control    DriftArm
	Burst      DriftArm
}

// StaleOffloadedOverlap counts the burst arm's stale lines that are in
// the plan's offloaded set — the lines whose model the burst genuinely
// invalidated.
func (r *DriftResult) StaleOffloadedOverlap() int {
	on := map[int]bool{}
	for _, ln := range r.Offloaded {
		on[ln] = true
	}
	n := 0
	for _, ln := range r.Burst.Stale {
		if on[ln] {
			n++
		}
	}
	return n
}

// Drift runs the two-arm drift study: identical Poisson serving load on
// fresh platforms, one arm with a mid-horizon availability burst. Arms
// are independent runs fanned out on the pool and assembled in input
// order, so -j 1 and -j N outputs are bit-identical.
func Drift(params workloads.Params, opts ...Option) (*DriftResult, *report.Table, error) {
	o := buildOptions(opts)
	wb, err := o.only(params, driftPrograms)
	if err != nil {
		return nil, nil, err
	}
	sc := driver.NewScenario(DriftWorkload, wb.Prepared, params.OverheadScale())
	if sc.Provenance == nil {
		return nil, nil, fmt.Errorf("experiments: drift: scenario %s carries no provenance", sc.Name)
	}
	scenarios := map[string]*driver.Scenario{sc.Name: sc}
	// Each arm serves one Poisson tenant named after it. The serving
	// flags do not apply: the arms are defined by this one load.
	arms := []DriftArm{{Name: "control"}, {Name: "burst", Burst: true}}
	templates := make([][]ServingTenantSpec, len(arms))
	for i, arm := range arms {
		templates[i] = []ServingTenantSpec{{Name: arm.Name,
			Weights: []driver.Weighted{{Name: sc.Name, Weight: 1}},
			Arrival: driver.Arrival{Process: driver.Poisson}}}
	}
	solo, err := ServingCalibrate(templates[0], scenarios, ServingOverrides{})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: drift: %w", err)
	}
	tenants := make([][]driver.TenantConfig, len(arms))
	var horizon float64
	for i := range arms {
		if tenants[i], horizon, err = ServingTraffic(templates[i], scenarios, ServingOverrides{}, DriftLoad/solo, solo); err != nil {
			return nil, nil, fmt.Errorf("experiments: drift: %w", err)
		}
	}
	window := 2 * solo
	burstAt := horizon / 2
	planned := obs.PlannedFromProvenance(sc.Provenance)

	res := &DriftResult{
		Workload:   sc.Name,
		Solo:       solo,
		Window:     window,
		BurstAt:    burstAt,
		Provenance: sc.Provenance,
	}
	for i := range sc.Provenance.Lines {
		lp := &sc.Provenance.Lines[i]
		if lp.OnCSD && lp.Execs > 0 {
			res.Offloaded = append(res.Offloaded, lp.Line)
		}
	}

	per, err := overSpecs(o, len(arms), func(i int, reg *metrics.Registry) (DriftArm, error) {
		arm := arms[i]
		p := platform.Default()
		if arm.Burst {
			p.Dev.ScheduleStress(p.Sim.Now()+burstAt, DriftAvailability, 0)
		}
		col := obs.NewCollector(window, 0)
		dres, err := driver.Run(p, driver.Config{
			Seed:     DriftSeed,
			Duration: horizon,
			Tenants:  tenants[i],
			// One service slot: requests serialize, so the control arm's
			// per-line costs carry no cross-request contention the fitted
			// model never saw.
			MaxInFlight: 1,
			MaxQueue:    4,
			Metrics:     reg,
			ObsWindow:   window,
			Obs:         col,
		})
		if err != nil {
			return DriftArm{}, fmt.Errorf("experiments: drift: %s: %w", arm.Name, err)
		}
		p.FoldMetrics(reg)
		rep := obs.ScoreDrift(col, planned, obs.DefaultDriftConfig())
		col.Windows().Fold(reg)
		rep.Fold(reg)
		arm.Res, arm.Report, arm.Stale = dres, rep, rep.StaleLines()
		return arm, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res.Control, res.Burst = per[0], per[1]

	tbl := report.NewTable(fmt.Sprintf(
		"Drift: %s serving load, CSE availability drops to %.0f%% at t=%.3fs (burst arm)",
		res.Workload, DriftAvailability*100, burstAt),
		"arm", "line", "unit", "planned s/exec", "observed s/exec", "worst", "windows", "diverged", "stale")
	for _, arm := range []*DriftArm{&res.Control, &res.Burst} {
		for _, ld := range arm.Report.Lines {
			stale := "no"
			if ld.Stale {
				stale = fmt.Sprintf("since w%d", ld.StaleSince)
			}
			tbl.AddRow(arm.Name, fmt.Sprintf("%d", ld.Line), ld.Unit,
				fmt.Sprintf("%.6f", ld.Planned),
				fmt.Sprintf("%.6f", ld.Observed),
				fmt.Sprintf("%.2fx", ld.Ratio),
				fmt.Sprintf("%d", ld.Windows),
				fmt.Sprintf("%d", ld.Diverged),
				stale)
		}
		tbl.AddRow(arm.Name, "ALL", "",
			fmt.Sprintf("completed %d", arm.Res.Completed),
			fmt.Sprintf("shed %d", arm.Res.Shed), "", "",
			"", fmt.Sprintf("%d lines", len(arm.Stale)))
	}
	tbl.AddRow("SUMMARY", "", "", "", "", "", "",
		fmt.Sprintf("offloaded %v", res.Offloaded),
		fmt.Sprintf("overlap %d", res.StaleOffloadedOverlap()))
	return res, tbl, nil
}
