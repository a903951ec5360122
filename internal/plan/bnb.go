// Branch-and-bound: the runtime's exact planner (DESIGN.md §16). It
// returns the argmin of EvaluatePlacement over every placement of the
// free lines — the space Optimal brute-forces in 2^n walks — by
// searching it as a depth-first tree over per-line host/CSD decisions:
//
//   - the program decomposes into variable-sharing components
//     (residency crossings only couple lines that touch a common
//     variable, so Equation 1's objective separates across components
//     and each is solved independently); SearchSize counts the
//     worst-case tree over them, which the analysis layer's AV008
//     advisory compares against the node budget;
//   - within a component, lines are decided in source order, extending
//     and rewinding EvaluatePlacement's residency-billing walk, so every
//     tree path is priced incrementally and exactly;
//   - an admissible lower bound prunes subtrees: the cost so far plus
//     the suffix sum of every undecided line's cheaper unit cost
//     (crossings are nonnegative, so no completion can cost less);
//   - every free line tries the device side first; lines pinned by the
//     constraints — legality, and the never-win lines Plan pins before
//     any planner runs — never branch;
//   - the incumbent is seeded from the all-host walk, Algorithm 1's
//     placement, and a unit-greedy placement, so pruning bites from the
//     first node;
//   - exact ties resolve as in Optimal, to the lowest mask: of two
//     equally cheap plans, the one that runs the last line where they
//     differ on the host. The incumbent yields to an equally cheap plan
//     only if its mask is lower, and a subtree whose bound meets the
//     incumbent stays open while it could still hold one.
//
// A node budget caps the search; on blowout BnB abandons exactness and
// returns Algorithm 1's plan (Result.Planner records it, core bumps
// plan.optimal.fallback). Within budget the plan is the one Optimal
// returns, partition and totals alike — the property and tie tests pin
// the two against each other on every ≤MaxOptimalLines program.
package plan

import (
	"math"

	"activego/internal/codegen"
	"activego/internal/par"
)

// PlannerBnB labels plans produced by the branch-and-bound search.
const PlannerBnB = "bnb"

// DefaultBnBNodeBudget caps the branch-and-bound expansions of one plan.
// A node is one host-or-CSD side assignment of one free line; the
// worst-case tree over a b-line component has 2^(b+1)−2 of them.
const DefaultBnBNodeBudget = 1 << 22

// BnBExactLines is the largest variable-sharing component of free lines
// for which branch-and-bound is *guaranteed* exact under the default
// budget, with no help from pruning: 2^(BnBExactLines+1)−2 ≤
// DefaultBnBNodeBudget. A program whose only wide component has this
// many free lines can never hit the Algorithm 1 fallback; one line more
// and the analysis layer's AV008 advisory fires.
const BnBExactLines = 21

// BnBStats reports one branch-and-bound run's search effort; pass a
// zero value to BnBBudget to collect it.
type BnBStats struct {
	// Budget is the node budget the search ran under.
	Budget int
	// Nodes counts side assignments expanded across all components.
	Nodes int
	// BoundCuts counts subtrees pruned because the admissible lower
	// bound already met the incumbent.
	BoundCuts int
	// Components is the number of variable-sharing components searched.
	Components int
	// FreeLines is the number of unpinned lines over all components.
	FreeLines int
	// Fallback reports that the budget blew and the returned plan is
	// Algorithm 1's, not the exact argmin.
	Fallback bool
}

// BnBBudget is the runtime's exact planner: the branch-and-bound search
// under an explicit node budget (0 = DefaultBnBNodeBudget), filling
// stats if non-nil. On budget blowout it returns Algorithm1's plan with
// stats.Fallback set.
func BnBBudget(estimates []LineEstimate, cons Constraints, m Machine, budget int, stats *BnBStats) *Result {
	if budget <= 0 {
		budget = DefaultBnBNodeBudget
	}
	if stats == nil {
		stats = &BnBStats{}
	}
	stats.Budget = budget

	pinned := make([]bool, len(estimates))
	changes := 0 // home changes on the longest walk: one per flow
	for i := range estimates {
		if _, p := cons.Pinned(estimates[i].Line); p {
			pinned[i] = true
		} else {
			stats.FreeLines++
		}
		changes += len(estimates[i].Reads) + len(estimates[i].Writes)
	}

	alg1 := Algorithm1(estimates, cons, m)
	s := &bnbSearch{
		est:    estimates,
		pinned: pinned,
		alg1:   alg1.Partition,
		w:      walk{m: m, home: map[string]bool{}, undo: make([]homeChange, 0, changes)},
		budget: budget,
		stats:  stats,
	}
	part := codegen.NewPartition()
	for _, comp := range varComponents(estimates) {
		stats.Components++
		assign, ok := s.solveComponent(comp)
		if !ok {
			stats.Fallback = true
			return alg1
		}
		for k, idx := range comp {
			if assign[k] {
				part.CSDLines[estimates[idx].Line] = true
			}
		}
	}
	// Report both totals through the canonical residency walk so the
	// numbers are bit-consistent with Optimal's for the same partition.
	tHost := EvaluatePlacement(estimates, codegen.NewPartition(), m).Time
	tCSD := tHost
	if !part.Empty() {
		tCSD = EvaluatePlacement(estimates, part, m).Time
	}
	return &Result{Partition: part, Estimates: estimates, THost: tHost, TCSD: tCSD, Planner: PlannerBnB}
}

// varComponents partitions the estimate indices into variable-sharing
// connected components: two lines land together when any chain of
// shared read/written variables links them. Residency crossings only
// arise on shared variables, so EvaluatePlacement's total is the sum of
// the components' walks and the argmin factorizes. Components are
// returned with members ascending, ordered by first member.
func varComponents(estimates []LineEstimate) [][]int {
	parent := make([]int, len(estimates))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	owner := map[string]int{}
	touch := func(i int, name string) {
		if j, ok := owner[name]; ok {
			union(i, j)
		} else {
			owner[name] = i
		}
	}
	for i := range estimates {
		for _, r := range estimates[i].Reads {
			touch(i, r.Name)
		}
		for _, w := range estimates[i].Writes {
			touch(i, w.Name)
		}
	}
	order := []int{}
	members := map[int][]int{}
	for i := range estimates {
		r := find(i)
		if _, seen := members[r]; !seen {
			order = append(order, r)
		}
		members[r] = append(members[r], i)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, members[r])
	}
	return out
}

// SearchSize is branch-and-bound's worst-case search over estimates
// under cons: worst sums 2^(k+1)−2 nodes over each variable-sharing
// component's k free (unpinned) lines, saturating at math.MaxInt, and
// biggest is the largest such k. The components of one plan share its
// node budget, so it is worst that a budget must cover.
func SearchSize(estimates []LineEstimate, cons Constraints) (worst, biggest int) {
	for _, comp := range varComponents(estimates) {
		k := 0
		for _, idx := range comp {
			if _, p := cons.Pinned(estimates[idx].Line); !p {
				k++
			}
		}
		biggest = max(biggest, k)
		w := math.MaxInt
		if k < 61 {
			w = (1 << (k + 1)) - 2
		}
		if worst > math.MaxInt-w {
			worst = math.MaxInt
		} else {
			worst += w
		}
	}
	return worst, biggest
}

type bnbSearch struct {
	est    []LineEstimate
	pinned []bool
	alg1   codegen.Partition // Algorithm 1's plan, an incumbent seed
	w      walk              // the residency walk along the current tree path
	budget int
	stats  *BnBStats

	// Per-component search state.
	comp      []int     // member indices, ascending
	suffix    []float64 // suffix[k] = Σ_{j≥k} cheapest unit cost
	incumbent float64
	best      []bool // assignment achieving the incumbent
	cur       []bool
	nodes     int
}

// walkAssign prices a complete component assignment through the
// incremental walk (used to seed the incumbent).
func (s *bnbSearch) walkAssign(assign []bool) float64 {
	mark := len(s.w.undo)
	cost := 0.0
	for k, idx := range s.comp {
		cost = s.w.step(cost, &s.est[idx], assign[k])
	}
	s.w.rewind(mark)
	return cost
}

// unitFloor is the cheapest unit cost of the component member at
// position k: HostTotal if it is pinned to the host, else the cheaper of
// its host and device units.
func (s *bnbSearch) unitFloor(k int) float64 {
	e := &s.est[s.comp[k]]
	unit := e.HostTotal()
	if !s.pinned[s.comp[k]] {
		if dev := e.DevTotal() + e.QueueOverhead(&s.w.m); dev < unit {
			unit = dev
		}
	}
	return unit
}

// solveComponent finds the component's exact argmin assignment (true =
// CSD), or reports budget blowout.
func (s *bnbSearch) solveComponent(comp []int) ([]bool, bool) {
	s.comp = comp
	n := len(comp)

	// Admissible suffix bound: every undecided line costs at least its
	// cheaper unit (pinned lines cost at least HostTotal), and any
	// crossing only adds. suffix[n] = 0.
	s.suffix = make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		s.suffix[k] = s.suffix[k+1] + s.unitFloor(k)
	}

	// Seed the incumbent: all-host first, then Algorithm 1's placement
	// restricted to the component, then the unit-greedy placement. Seeds
	// and DFS leaves alike replace the incumbent only when cheaper, or
	// equally cheap with a lower mask.
	s.best = make([]bool, n)
	s.cur = make([]bool, n)
	allHost := make([]bool, n)
	s.incumbent = s.walkAssign(allHost)
	seed := func(assign []bool) {
		if c := s.walkAssign(assign); c < s.incumbent || (c == s.incumbent && maskLess(assign, s.best)) {
			s.incumbent = c
			copy(s.best, assign)
		}
	}
	fromAlg1 := make([]bool, n)
	greedy := make([]bool, n)
	for k, idx := range comp {
		if s.pinned[idx] {
			continue
		}
		e := &s.est[idx]
		fromAlg1[k] = s.alg1.OnCSD(e.Line)
		greedy[k] = e.DevTotal()+e.QueueOverhead(&s.w.m) < e.HostTotal()
	}
	seed(fromAlg1)
	seed(greedy)

	if !s.dfs(0, 0) {
		return nil, false
	}
	out := make([]bool, n)
	copy(out, s.best)
	return out, true
}

// dfs decides the side of component member k with cost already
// accumulated over members 0..k-1. Returns false on budget blowout.
func (s *bnbSearch) dfs(k int, cost float64) bool {
	if k == len(s.comp) {
		if cost < s.incumbent || (cost == s.incumbent && maskLess(s.cur, s.best)) {
			s.incumbent = cost
			copy(s.best, s.cur)
		}
		return true
	}
	// Admissible bound: no completion of this prefix can beat the
	// incumbent. One that might tie it survives only while it could
	// still win the tie-break.
	if cost+s.suffix[k] >= s.incumbent && !s.tieReachable(k, cost) {
		s.stats.BoundCuts++
		return true
	}
	e := &s.est[s.comp[k]]
	if s.pinned[s.comp[k]] {
		// Pinned sides consume no budget: they never branch, so the
		// worst-case tree stays 2^(free+1)−2 nodes.
		mark := len(s.w.undo)
		s.cur[k] = false
		ok := s.dfs(k+1, s.w.step(cost, e, false))
		s.w.rewind(mark)
		return ok
	}
	for _, onCSD := range [2]bool{true, false} {
		s.nodes++
		s.stats.Nodes = s.nodes
		if s.nodes > s.budget {
			return false
		}
		mark := len(s.w.undo)
		s.cur[k] = onCSD
		if !s.dfs(k+1, s.w.step(cost, e, onCSD)) {
			return false
		}
		s.w.rewind(mark)
	}
	return true
}

// AutoPool is BnBBudget; pool is ignored.
//
// Deprecated: call Plan, which also pins the never-win lines. AutoPool
// remains only because perfbench/pipeline.go still calls it.
func AutoPool(estimates []LineEstimate, cons Constraints, m Machine, _ *par.Pool, budget int, stats *BnBStats) *Result {
	return BnBBudget(estimates, cons, m, budget, stats)
}

// maskLess reports whether assignment a is a lower mask than b, reading
// position i as bit i as Optimal does: the last position where they
// differ runs on the host in a.
func maskLess(a, b []bool) bool {
	for k := len(a) - 1; k >= 0; k-- {
		if a[k] != b[k] {
			return !a[k]
		}
	}
	return false
}

// tieReachable reports whether some completion of the decided prefix
// cur[:k], whose walk so far costs cost, could tie the incumbent with a
// lower mask: by running on the host an undecided line the incumbent
// offloads, or because the prefix is already the lower one.
func (s *bnbSearch) tieReachable(k int, cost float64) bool {
	if maskLess(s.cur[:k], s.best[:k]) && s.tieBound(k, cost, -1) <= s.incumbent {
		return true
	}
	for p := len(s.comp) - 1; p >= k; p-- {
		if s.best[p] && s.tieBound(k, cost, p) <= s.incumbent {
			return true
		}
	}
	return false
}

// tieBound is a lower bound on the walk cost of every completion of the
// prefix that runs position hostAt on the host (hostAt < k: none). It
// adds each undecided line's cheapest unit in the walk's own order, and
// rounded addition is monotone, so unlike cost+suffix[k] — which sums
// in another order — it can never round above a completion that ties.
func (s *bnbSearch) tieBound(k int, cost float64, hostAt int) float64 {
	for j := k; j < len(s.comp); j++ {
		if j == hostAt {
			cost += s.est[s.comp[j]].HostTotal()
		} else {
			cost += s.unitFloor(j)
		}
	}
	return cost
}
