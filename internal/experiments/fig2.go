package experiments

import (
	"fmt"

	"activego/internal/platform"
	"activego/internal/report"
	"activego/internal/workloads"
)

// Fig2Availabilities is the x-axis of Figure 2: the fraction of CSE time
// available to the ISP workload.
var Fig2Availabilities = []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}

// Fig2Workloads are the three TPC-H queries Figure 2 uses (the workloads
// Summarizer evaluated).
var Fig2Workloads = []string{"tpch-1", "tpch-6", "tpch-14"}

// fig2Programs are what Figure 2 reads: its three queries and their
// static bars.
var fig2Programs = Programs{Names: Fig2Workloads, Static: true}

// Fig2Point is one (workload, availability) measurement.
type Fig2Point struct {
	Workload     string
	Availability float64
	Speedup      float64 // static C ISP vs no-ISP baseline
}

// Fig2Result is the full sweep.
type Fig2Result struct {
	Points []Fig2Point
}

// Crossover returns, for one workload, the largest swept availability at
// which the static ISP program is slower than the baseline (speedup < 1);
// 0 if it never loses.
func (r *Fig2Result) Crossover(workload string) float64 {
	cross := 0.0
	for _, p := range r.Points {
		if p.Workload == workload && p.Speedup < 1 && p.Availability > cross {
			cross = p.Availability
		}
	}
	return cross
}

// SpeedupAt returns the speedup of a workload at an availability.
func (r *Fig2Result) SpeedupAt(workload string, avail float64) float64 {
	for _, p := range r.Points {
		if p.Workload == workload && p.Availability == avail {
			return p.Speedup
		}
	}
	return 0
}

// Fig2 regenerates Figure 2: three TPC-H workloads optimized the
// Summarizer way — static C ISP code tuned exhaustively assuming a fully
// available CSE — then run under progressively less available CSE time.
// The paper's point: above ~1.25x at 100%, performance loss once less
// than roughly half the CSE is available, because a static framework
// cannot move the work back.
func Fig2(params workloads.Params, opts ...Option) (*Fig2Result, *report.Table, error) {
	type perWorkload struct {
		points []Fig2Point
		cells  []string
	}
	outs, err := overPrograms(params, buildOptions(opts), fig2Programs, func(wb *Workbench) (perWorkload, error) {
		name := wb.Spec.Name
		out := perWorkload{cells: []string{name}}
		for _, avail := range Fig2Availabilities {
			a := avail
			run, err := wb.RunStatic(func(p *platform.Platform) { p.Dev.SetAvailability(a) })
			if err != nil {
				return perWorkload{}, fmt.Errorf("experiments: fig2: %s@%.0f%%: %w", name, a*100, err)
			}
			sp := wb.Baseline / run.Duration
			out.points = append(out.points, Fig2Point{Workload: name, Availability: a, Speedup: sp})
			out.cells = append(out.cells, fmt.Sprintf("%.2f", sp))
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res := &Fig2Result{}
	tbl := report.NewTable("Figure 2: static C ISP speedup vs CSE availability",
		append([]string{"workload"}, availHeaders()...)...)
	for _, out := range outs {
		res.Points = append(res.Points, out.points...)
		tbl.AddRow(out.cells...)
	}
	return res, tbl, nil
}

func availHeaders() []string {
	out := make([]string, len(Fig2Availabilities))
	for i, a := range Fig2Availabilities {
		out[i] = fmt.Sprintf("%.0f%%", a*100)
	}
	return out
}
