package experiments

import (
	"fmt"

	"activego/internal/exec"
	"activego/internal/platform"
	"activego/internal/report"
	"activego/internal/workloads"
)

// Fig5Availabilities are the two contention levels Figure 5 shows.
var Fig5Availabilities = []float64{0.5, 0.1}

// Fig5Row is one workload at one availability.
type Fig5Row struct {
	Workload         string
	Availability     float64
	WithMigration    float64 // speedup vs no-ISP baseline
	WithoutMigration float64
	Migrated         bool   // did the monitor actually move the task
	Planner          string // the planner behind the ActivePy plan
}

// Fig5Result is the full study.
type Fig5Result struct {
	Rows []Fig5Row
}

// rowsAt filters by availability.
func (r *Fig5Result) rowsAt(avail float64) []Fig5Row {
	var out []Fig5Row
	for _, row := range r.Rows {
		if row.Availability == avail {
			out = append(out, row)
		}
	}
	return out
}

// MigrationAdvantage returns the mean ratio of with-migration to
// without-migration times at the given availability (the paper reports
// 2.82x at 10%).
func (r *Fig5Result) MigrationAdvantage(avail float64) float64 {
	rows := r.rowsAt(avail)
	var sum float64
	n := 0
	for _, row := range rows {
		if row.WithoutMigration > 0 {
			sum += row.WithMigration / row.WithoutMigration
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanSlowdownWithMigration returns the average fractional slowdown vs
// the baseline when migration is on (the paper: 8% at 10% availability).
func (r *Fig5Result) MeanSlowdownWithMigration(avail float64) float64 {
	rows := r.rowsAt(avail)
	var sum float64
	for _, row := range rows {
		sum += 1 - row.WithMigration // speedup 0.92 -> 8% slowdown
	}
	return sum / float64(len(rows))
}

// LossWithoutMigration returns the mean and max fractional performance
// loss vs the baseline when migration is off (paper: 67% mean, 88% max
// at 10%). Loss is 1 - speedup, floored at zero.
func (r *Fig5Result) LossWithoutMigration(avail float64) (mean, max float64) {
	rows := r.rowsAt(avail)
	var sum float64
	for _, row := range rows {
		loss := 1 - row.WithoutMigration
		if loss < 0 {
			loss = 0
		}
		sum += loss
		if loss > max {
			max = loss
		}
	}
	return sum / float64(len(rows)), max
}

// progressTime interpolates the instant at which the offloaded task
// reached the given work fraction, using the reference run's progress
// timeline (points land at line boundaries; the interesting instant is
// usually inside a long line).
func progressTime(start float64, progress []exec.Progress, frac float64) float64 {
	prevT, prevF := start, 0.0
	for _, pr := range progress {
		if pr.Frac >= frac {
			if pr.Frac == prevF {
				return pr.Time
			}
			return prevT + (frac-prevF)/(pr.Frac-prevF)*(pr.Time-prevT)
		}
		prevT, prevF = pr.Time, pr.Frac
	}
	return prevT
}

// Fig5 regenerates Figure 5: every workload (Table I plus SparseMV, which
// the paper's §V discusses) runs under ActivePy with and without dynamic
// task migration while a co-tenant stresses the CSE — the stress arrives
// when the offloaded task reaches 50% of its progress, exactly the
// paper's methodology — leaving 50% or 10% of the CSE available for the
// rest of the run.
func Fig5(params workloads.Params, opts ...Option) (*Fig5Result, *report.Table, error) {
	perSpec, err := overPrograms(params, buildOptions(opts), allPrograms, func(wb *Workbench) ([]Fig5Row, error) {
		spec := wb.Spec
		// Reference run at full availability to locate the 50%-progress
		// instant of the offloaded task.
		ref, err := wb.RunActivePy(false, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig5: %s ref: %w", spec.Name, err)
		}
		t50 := progressTime(ref.Start, ref.CSDProgress, 0.5)
		var rows []Fig5Row
		for _, avail := range Fig5Availabilities {
			a := avail
			stress := func(p *platform.Platform) { p.Dev.ScheduleStress(t50, a, 0) }
			with, err := wb.RunActivePy(true, stress)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig5: %s@%.0f%% with: %w", spec.Name, a*100, err)
			}
			without, err := wb.RunActivePy(false, stress)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig5: %s@%.0f%% without: %w", spec.Name, a*100, err)
			}
			rows = append(rows, Fig5Row{
				Workload:         spec.Name,
				Availability:     a,
				WithMigration:    wb.Baseline / with.Duration,
				WithoutMigration: wb.Baseline / without.Duration,
				Migrated:         with.Migrated,
				Planner:          wb.Plan.Planner,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res := &Fig5Result{}
	tbl := report.NewTable("Figure 5: speedup vs baseline under CSE contention",
		"workload", "avail", "w/ migration", "w/o migration", "migrated")
	for _, rows := range perSpec {
		for _, row := range rows {
			res.Rows = append(res.Rows, row)
			tbl.AddRow(row.Workload, fmt.Sprintf("%.0f%%", row.Availability*100),
				fmt.Sprintf("%.3fx", row.WithMigration),
				fmt.Sprintf("%.3fx", row.WithoutMigration),
				fmt.Sprintf("%v", row.Migrated))
		}
	}
	for _, a := range Fig5Availabilities {
		mean, max := res.LossWithoutMigration(a)
		tbl.AddRow(fmt.Sprintf("SUMMARY@%.0f%%", a*100), "",
			fmt.Sprintf("adv %.2fx", res.MigrationAdvantage(a)),
			fmt.Sprintf("loss mean %.0f%% max %.0f%%", mean*100, max*100),
			fmt.Sprintf("slowdown w/ mig %.0f%%", res.MeanSlowdownWithMigration(a)*100))
	}
	return res, tbl, nil
}
