package experiments

import (
	"fmt"

	"activego/internal/fault"
	"activego/internal/metrics"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/report"
	"activego/internal/workloads"
)

// The planner study (ours — no paper counterpart; DESIGN.md §16): the
// seed's exact planner enumerated all 2^n placements and silently
// degraded to the greedy Algorithm 1 past 16 offloadable lines — a
// cliff where plan quality could drop the moment a program grew one
// line too many. This study measures the replacement past the cliff:
// branch-and-bound plans fixture programs of 12–32 viable lines, and
// the manifest tracks that every point stays exact (no node-budget
// fallback), what the search cost in nodes, how many subtrees the bound
// cut and how many lines the never-win pins removed before the search,
// and how far the greedy walk's plan is from the exact optimum. Both
// planners run through plan.Plan, the entry the runtime plans with.

// PlannerPoints are the exactness ladder's viable-line counts: up to
// the old enumeration cliff (12, 16) and past it (24, 30, 32).
var PlannerPoints = []int{12, 16, 24, 30, 32}

// plannerChainMax bounds one fixture chain. 16 keeps every component
// within the branch-and-bound exactness guarantee (2^17−2 nodes per
// chain, far under the 2^22 budget) while still exceeding the seed
// planner's whole-program limit once two chains are present.
const plannerChainMax = 16

// PlannerFixture fabricates a deterministic program of the given viable
// line count as planner estimates: lines round-robin over
// ceil(lines/16) dependence chains, each line reading its chain
// predecessor's variable and writing its own, with costs and byte
// volumes drawn from a splitmix64 stream keyed by the line count. Every
// chain is an independent variable-sharing component of at most 16
// lines, so branch-and-bound is statically guaranteed exact at every
// fixture size — the study measures the search, not fallback luck.
func PlannerFixture(lines int) []plan.LineEstimate {
	nchains := (lines + plannerChainMax - 1) / plannerChainMax
	// Seed provenance: derived from the fixture size parameter, so each
	// ladder point is a distinct but reproducible program.
	state := uint64(lines)
	next := func() uint64 {
		state++
		return fault.Mix64(state)
	}
	unit := func(scale float64) float64 {
		return scale * float64(next()%1000+1) / 1000
	}
	out := make([]plan.LineEstimate, 0, lines)
	for i := 0; i < lines; i++ {
		chain, pos := i%nchains, i/nchains
		ct := unit(2e-4)
		e := plan.LineEstimate{
			Line:   i + 1,
			Execs:  float64(next()%64 + 1),
			CTHost: ct,
			CTDev:  ct * (0.5 + 3*float64(next()%100)/100),
			SHost:  unit(3e-4),
			SDev:   unit(1.5e-4),
		}
		if pos > 0 {
			e.Reads = append(e.Reads, plan.VarFlow{
				Name:  fmt.Sprintf("c%d.v%d", chain, pos-1),
				Bytes: float64(next() % 2e6),
			})
		}
		e.Writes = append(e.Writes, plan.VarFlow{
			Name:  fmt.Sprintf("c%d.v%d", chain, pos),
			Bytes: float64(next() % 2e6),
		})
		for _, r := range e.Reads {
			e.DIn += r.Bytes
		}
		for _, w := range e.Writes {
			e.DOut += w.Bytes
		}
		out = append(out, e)
	}
	return out
}

// PlannerPoint is one exactness-ladder measurement.
type PlannerPoint struct {
	Lines        int
	Components   int
	Nodes        int
	BoundCuts    int
	NeverWinCuts int     // lines plan.Plan pinned as never-win
	Exact        bool    // search finished inside the node budget
	THost        float64 // all-host walk cost
	TCSD         float64 // branch-and-bound plan's walk cost
	GreedyTCSD   float64 // Algorithm 1's plan, walked for contrast
	// OptimalMatch is set at points of up to plan.MaxOptimalLines lines,
	// where the brute-force oracle runs: the branch-and-bound cost equals
	// the enumerated optimum.
	OptimalMatch bool
}

// PlannerResult is the full study.
type PlannerResult struct {
	Budget int
	Points []PlannerPoint
}

// plannerPoint runs one exactness measurement.
func plannerPoint(lines int, m plan.Machine) (PlannerPoint, error) {
	estimates := PlannerFixture(lines)
	res, stats, pruned, err := plan.Plan(estimates, plan.Constraints{}, m, plan.PlannerBnB, plan.DefaultBnBNodeBudget)
	if err != nil {
		return PlannerPoint{}, err
	}
	greedy, _, _, err := plan.Plan(estimates, plan.Constraints{}, m, plan.PlannerAlgorithm1, 0)
	if err != nil {
		return PlannerPoint{}, err
	}
	pt := PlannerPoint{
		Lines:        lines,
		Components:   stats.Components,
		Nodes:        stats.Nodes,
		BoundCuts:    stats.BoundCuts,
		NeverWinCuts: len(pruned),
		Exact:        !stats.Fallback,
		THost:        res.THost,
		TCSD:         plan.EvaluatePlacement(estimates, res.Partition, m).Time,
		GreedyTCSD:   plan.EvaluatePlacement(estimates, greedy.Partition, m).Time,
	}
	if lines <= plan.MaxOptimalLines {
		opt := plan.Optimal(estimates, plan.Constraints{HostOnly: map[int]string{}}, m)
		pt.OptimalMatch = plan.EvaluatePlacement(estimates, opt.Partition, m).Time == pt.TCSD
	}
	return pt, nil
}

// Planner runs the study: the exactness ladder fanned out on the pool
// and assembled in input order, so -j 1 and -j N are bit-identical. The
// ladder's fixtures are fixed programs, so params does not enter it.
func Planner(_ workloads.Params, opts ...Option) (*PlannerResult, *report.Table, error) {
	o := buildOptions(opts)
	m := plan.MachineFromPlatform(platform.Default())
	res := &PlannerResult{Budget: plan.DefaultBnBNodeBudget}

	points, err := overSpecs(o, len(PlannerPoints), func(i int, _ *metrics.Registry) (PlannerPoint, error) {
		return plannerPoint(PlannerPoints[i], m)
	})
	if err != nil {
		return nil, nil, err
	}
	res.Points = points

	tbl := report.NewTable(
		fmt.Sprintf("Planner: branch-and-bound exactness ladder (budget %d nodes)", res.Budget),
		"lines", "components", "nodes", "bound cuts", "neverwin cuts", "exact", "T_CSD", "greedy T_CSD", "optimal match")
	for _, pt := range res.Points {
		match := "n/a (past enumeration limit)"
		if pt.Lines <= plan.MaxOptimalLines {
			match = fmt.Sprintf("%t", pt.OptimalMatch)
		}
		tbl.AddRow(
			fmt.Sprintf("%d", pt.Lines),
			fmt.Sprintf("%d", pt.Components),
			fmt.Sprintf("%d", pt.Nodes),
			fmt.Sprintf("%d", pt.BoundCuts),
			fmt.Sprintf("%d", pt.NeverWinCuts),
			fmt.Sprintf("%t", pt.Exact),
			fmt.Sprintf("%.6f", pt.TCSD),
			fmt.Sprintf("%.6f", pt.GreedyTCSD),
			match)
	}
	return res, tbl, nil
}
