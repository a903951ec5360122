package experiments

import (
	"fmt"

	"activego/internal/exec"
	"activego/internal/platform"
	"activego/internal/report"
	"activego/internal/trace"
	"activego/internal/workloads"
)

// UtilizationWorkload is the application the utilization study traces:
// TPC-H Q6 is the paper's canonical filter-heavy offload case, so its
// timeline shows every lane of the stack doing real work.
const UtilizationWorkload = "tpch-6"

var utilizationPrograms = Programs{Names: []string{UtilizationWorkload}}

// UtilizationStressAvail is the CSE availability the stressed timeline
// drops to — Figure 5's harsher contention level, where the §III-D
// monitor reliably migrates.
const UtilizationStressAvail = 0.1

// UtilizationResult holds the two traced runs of the utilization study.
// This study has no paper counterpart: it exists because the simulator
// can expose per-component timelines the paper's real hardware could
// not, and because the traces make every other experiment debuggable.
type UtilizationResult struct {
	Workload string
	Planner  string // the planner behind the traced plan

	// Rec/Res are the steady-state run: full availability, no
	// migration — the clean per-component utilization picture.
	Rec *trace.Recorder
	Res *exec.Result

	// StressRec/StressRes are the Figure 5-style run: a co-tenant
	// takes the CSE at the 50%-progress instant and the monitor
	// migrates the rest of the task to the host.
	StressRec *trace.Recorder
	StressRes *exec.Result
	StressAt  float64 // stress arrival instant (simulated seconds)
}

// MigrationTimeline renders the stressed run's key instants as a table:
// run start, stress arrival, the §III-D migration decision, and run end.
func (u *UtilizationResult) MigrationTimeline() *report.Table {
	tbl := report.NewTable(
		fmt.Sprintf("Migration timeline: %s, CSE availability drops to %.0f%% mid-run",
			u.Workload, UtilizationStressAvail*100),
		"event", "t ms")
	row := func(name string, t float64) {
		tbl.AddRow(name, fmt.Sprintf("%.4f", t*1e3))
	}
	row("run start", u.StressRes.Start)
	row("co-tenant stress arrives", u.StressAt)
	for _, in := range u.StressRec.Instants() {
		if in.Component == "exec" && in.Name == "migrate" {
			row("monitor migrates to host", in.At)
		}
	}
	row("run end", u.StressRes.End)
	return tbl
}

// Utilization runs the utilization & timelines study (ours — no paper
// counterpart): one traced steady-state run of UtilizationWorkload and
// one traced Figure 5-style stressed run with migration. The returned
// table is the steady-state per-component occupancy; the recorders in
// the result carry the full timelines for Chrome export or summaries.
func Utilization(params workloads.Params, opts ...Option) (*UtilizationResult, *report.Table, error) {
	wb, err := buildOptions(opts).only(params, utilizationPrograms)
	if err != nil {
		return nil, nil, err
	}

	rec := trace.New()
	res, err := wb.RunActivePy(false, func(p *platform.Platform) { p.SetRecorder(rec) })
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: utilization: %s steady: %w", UtilizationWorkload, err)
	}

	// Stress arrives when the offloaded task hits 50% progress, per the
	// Figure 5 methodology; the steady run doubles as the reference.
	t50 := progressTime(res.Start, res.CSDProgress, 0.5)
	stressRec := trace.New()
	stressRes, err := wb.RunActivePy(true, func(p *platform.Platform) {
		p.SetRecorder(stressRec)
		p.Dev.ScheduleStress(t50, UtilizationStressAvail, 0)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: utilization: %s stressed: %w", UtilizationWorkload, err)
	}

	u := &UtilizationResult{
		Workload:  UtilizationWorkload,
		Planner:   wb.Plan.Planner,
		Rec:       rec,
		Res:       res,
		StressRec: stressRec,
		StressRes: stressRes,
		StressAt:  t50,
	}
	tbl := rec.UtilizationTable(fmt.Sprintf(
		"Utilization & timelines (ours, no paper counterpart): %s, full ActivePy pipeline", UtilizationWorkload))
	return u, tbl, nil
}
