package experiments

import (
	"fmt"

	"activego/internal/report"
	"activego/internal/workloads"
)

// fig4Programs are what Figure 4 reads: every Table I application and
// its static bar.
var fig4Programs = Programs{Names: specNames(workloads.TableI()), Static: true}

// Fig4Row is one application's bar pair in Figure 4.
type Fig4Row struct {
	Workload        string
	BaselineTime    float64
	StaticSpeedup   float64 // optimal programmer-directed C ISP
	ActivePySpeedup float64 // automatic, no hints
	PlanMatches     bool    // ActivePy picked the same line set
	GapPercent      float64 // (static - activepy) / static * 100
	PlanLines       []int   // the offload set ActivePy chose
	Planner         string  // the planner that chose it
}

// Fig4Result is the full comparison.
type Fig4Result struct {
	Rows         []Fig4Row
	MeanStatic   float64 // arithmetic mean speedup, as the paper averages
	MeanActivePy float64
	Matches      int
}

// Fig4 regenerates Figure 4: for every Table I application, the speedup
// of the optimal programmer-directed C ISP configuration (found by
// exhaustive search, as the paper's methodology describes) and of
// automatic ActivePy with no hints, both normalized to the no-ISP C
// baseline. The paper reports 1.33x vs 1.34x with ActivePy finding
// exactly the optimal line sets; the reproduction target is that the two
// bars track each other within a few percent on every application.
func Fig4(params workloads.Params, opts ...Option) (*Fig4Result, *report.Table, error) {
	rows, err := overPrograms(params, buildOptions(opts), fig4Programs, func(wb *Workbench) (Fig4Row, error) {
		spec := wb.Spec
		auto, err := wb.RunActivePy(true, nil)
		if err != nil {
			return Fig4Row{}, fmt.Errorf("experiments: fig4: %s: %w", spec.Name, err)
		}
		row := Fig4Row{
			Workload:        spec.Name,
			BaselineTime:    wb.Baseline,
			StaticSpeedup:   wb.Baseline / wb.StaticTime,
			ActivePySpeedup: wb.Baseline / auto.Duration,
			PlanMatches:     wb.Plan.Partition.Equal(wb.StaticPart),
			PlanLines:       wb.Plan.Partition.Lines(),
			Planner:         wb.Plan.Planner,
		}
		row.GapPercent = 100 * (row.StaticSpeedup - row.ActivePySpeedup) / row.StaticSpeedup
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res := &Fig4Result{}
	tbl := report.NewTable("Figure 4: speedup vs no-ISP C baseline",
		"workload", "baseline", "static ISP", "activepy", "plan match", "gap")
	var sumS, sumA float64
	for _, row := range rows {
		res.Rows = append(res.Rows, row)
		sumS += row.StaticSpeedup
		sumA += row.ActivePySpeedup
		if row.PlanMatches {
			res.Matches++
		}
		tbl.AddRow(row.Workload,
			fmt.Sprintf("%.2f ms", row.BaselineTime*1e3),
			fmt.Sprintf("%.3fx", row.StaticSpeedup),
			fmt.Sprintf("%.3fx", row.ActivePySpeedup),
			fmt.Sprintf("%v", row.PlanMatches),
			fmt.Sprintf("%.1f%%", row.GapPercent))
	}
	n := float64(len(res.Rows))
	res.MeanStatic = sumS / n
	res.MeanActivePy = sumA / n
	tbl.AddRow("MEAN", "",
		fmt.Sprintf("%.3fx", res.MeanStatic),
		fmt.Sprintf("%.3fx", res.MeanActivePy),
		fmt.Sprintf("%d/%d", res.Matches, len(res.Rows)),
		fmt.Sprintf("%.1f%%", 100*(res.MeanStatic-res.MeanActivePy)/res.MeanStatic))
	return res, tbl, nil
}
