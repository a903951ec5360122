// Branch-and-bound: the runtime's exact planner (DESIGN.md §16). It
// returns the argmin of EvaluatePlacement over every placement of the
// free lines — the space Optimal brute-forces in 2^n walks — by
// searching it as a depth-first tree over per-line host/CSD decisions:
//
//   - the program decomposes into variable-sharing components (the
//     dynamic mirror of the analysis layer's data-dependence DAG:
//     residency crossings only couple lines that touch a common
//     variable, so Equation 1's objective separates across components
//     and each is solved independently);
//   - within a component, lines are decided in source order so the
//     residency-billing walk of EvaluatePlacement evaluates
//     incrementally and exactly along every tree path;
//   - an admissible lower bound prunes subtrees: the cost so far plus
//     the suffix sum of every undecided line's cheaper unit cost
//     (crossings are nonnegative, so no completion can cost less);
//   - the never-win margins of prune.go cut the CSD branch of any line
//     whose offload provably loses under every partition, and order the
//     remaining branches device-first when the margin says offload can
//     win;
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
// DefaultBnBNodeBudget. Programs whose components all fit under it can
// never hit the Algorithm 1 fallback — the analysis layer's AV008
// advisory fires only past this guarantee (a test pins the two).
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
	// NeverWinCuts counts free lines whose CSD branch was never opened
	// because the AV011 margin proof shows offloading strictly loses.
	NeverWinCuts int
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

	margins := neverWinMargins(estimates, m)
	pinned := make([]bool, len(estimates))
	for i := range estimates {
		if _, p := cons.Pinned(estimates[i].Line); p {
			pinned[i] = true
		} else {
			stats.FreeLines++
		}
	}

	s := &bnbSearch{
		est:     estimates,
		pinned:  pinned,
		margins: margins,
		m:       m,
		budget:  budget,
		stats:   stats,
		home:    map[string]bool{},
	}
	part := codegen.NewPartition()
	for _, comp := range varComponents(estimates) {
		stats.Components++
		assign, ok := s.solveComponent(comp)
		if !ok {
			stats.Fallback = true
			return Algorithm1(estimates, cons, m)
		}
		for k, idx := range comp {
			if assign[k] {
				part.CSDLines[estimates[idx].Line] = true
			}
		}
	}
	// Report both totals through the canonical residency walk so the
	// numbers are bit-consistent with Optimal's for the same partition.
	tHost := EvaluatePlacement(estimates, codegen.NewPartition(), m)
	tCSD := tHost
	if !part.Empty() {
		tCSD = EvaluatePlacement(estimates, part, m)
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

// homeChange is one residency-map mutation on the DFS path, recorded so
// backtracking can restore the walk state exactly.
type homeChange struct {
	name    string
	prevDev bool
	existed bool
}

type bnbSearch struct {
	est     []LineEstimate
	pinned  []bool
	margins []marginProof
	m       Machine
	budget  int
	stats   *BnBStats

	// Per-component search state.
	comp      []int     // member indices, ascending
	suffix    []float64 // suffix[k] = Σ_{j≥k} cheapest unit cost
	incumbent float64
	best      []bool // assignment achieving the incumbent
	cur       []bool
	home      map[string]bool
	undo      []homeChange
	nodes     int
}

// step extends the residency walk by one line on the given side,
// mirroring EvaluatePlacementDetail's accumulation order exactly
// (reads, then writes, then the unit cost) so a completed path's cost
// is the walk's, bit for bit. Mutations land on the undo log.
func (s *bnbSearch) step(cost float64, e *LineEstimate, onCSD bool) float64 {
	for _, r := range e.Reads {
		dev, known := s.home[r.Name]
		if known && dev != onCSD {
			cost += r.Bytes/s.m.D2HBW + s.m.D2HLat
			s.undo = append(s.undo, homeChange{r.Name, dev, true})
			s.home[r.Name] = onCSD
		}
	}
	for _, w := range e.Writes {
		dev, known := s.home[w.Name]
		s.undo = append(s.undo, homeChange{w.Name, dev, known})
		s.home[w.Name] = onCSD
	}
	if onCSD {
		cost += e.DevTotal() + e.QueueOverhead(s.m)
	} else {
		cost += e.HostTotal()
	}
	return cost
}

// unwind rolls the residency map back to a recorded undo-log length.
func (s *bnbSearch) unwind(n int) {
	for i := len(s.undo) - 1; i >= n; i-- {
		ch := s.undo[i]
		if ch.existed {
			s.home[ch.name] = ch.prevDev
		} else {
			delete(s.home, ch.name)
		}
	}
	s.undo = s.undo[:n]
}

// walkAssign prices a complete component assignment through the
// incremental walk (used to seed the incumbent).
func (s *bnbSearch) walkAssign(assign []bool) float64 {
	mark := len(s.undo)
	cost := 0.0
	for k, idx := range s.comp {
		cost = s.step(cost, &s.est[idx], assign[k])
	}
	s.unwind(mark)
	return cost
}

// unitFloor is the cheapest unit cost of the component member at
// position k: HostTotal if it is forced to the host, else the cheaper of
// its host and device units.
func (s *bnbSearch) unitFloor(k int) float64 {
	e := &s.est[s.comp[k]]
	unit := e.HostTotal()
	if !s.forcedHost(k) {
		if dev := e.DevTotal() + e.QueueOverhead(s.m); dev < unit {
			unit = dev
		}
	}
	return unit
}

// forcedHost reports whether the component member at position k may
// only run on the host: pinned by constraints, or proved never-win.
func (s *bnbSearch) forcedHost(k int) bool {
	idx := s.comp[k]
	if s.pinned[idx] {
		return true
	}
	mp := s.margins[idx]
	return mp.Proved && mp.Margin > 0
}

// solveComponent finds the component's exact argmin assignment (true =
// CSD), or reports budget blowout.
func (s *bnbSearch) solveComponent(comp []int) ([]bool, bool) {
	s.comp = comp
	n := len(comp)

	// Admissible suffix bound: every undecided line costs at least its
	// cheaper unit (forced-host lines cost at least HostTotal), and any
	// crossing only adds. suffix[n] = 0.
	s.suffix = make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		s.suffix[k] = s.suffix[k+1] + s.unitFloor(k)
	}
	for k := 0; k < n; k++ {
		idx := comp[k]
		if !s.pinned[idx] {
			mp := s.margins[idx]
			if mp.Proved && mp.Margin > 0 {
				s.stats.NeverWinCuts++
			}
		}
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
	alg1 := Algorithm1(s.est, Constraints{HostOnly: s.consHostOnly()}, s.m)
	fromAlg1 := make([]bool, n)
	greedy := make([]bool, n)
	for k, idx := range comp {
		if s.forcedHost(k) {
			continue
		}
		e := &s.est[idx]
		fromAlg1[k] = alg1.Partition.OnCSD(e.Line)
		greedy[k] = e.DevTotal()+e.QueueOverhead(s.m) < e.HostTotal()
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

// consHostOnly rebuilds the forced-host line set (constraint pins plus
// never-win proofs) for the Algorithm 1 incumbent seed.
func (s *bnbSearch) consHostOnly() map[int]string {
	out := map[int]string{}
	for i := range s.est {
		mp := s.margins[i]
		if s.pinned[i] || (mp.Proved && mp.Margin > 0) {
			out[s.est[i].Line] = "bnb: forced host"
		}
	}
	return out
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
	if s.forcedHost(k) {
		// Forced sides consume no budget: they never branch, so the
		// worst-case tree stays 2^(free+1)−2 nodes.
		mark := len(s.undo)
		s.cur[k] = false
		ok := s.dfs(k+1, s.step(cost, e, false))
		s.unwind(mark)
		return ok
	}
	// Branch order: the never-win margin says how decisively offloading
	// can still win; try the device side first when it can.
	sides := [2]bool{false, true}
	if s.margins[s.comp[k]].Margin < 0 {
		sides = [2]bool{true, false}
	}
	for _, onCSD := range sides {
		s.nodes++
		s.stats.Nodes = s.nodes
		if s.nodes > s.budget {
			return false
		}
		mark := len(s.undo)
		s.cur[k] = onCSD
		if !s.dfs(k+1, s.step(cost, e, onCSD)) {
			return false
		}
		s.unwind(mark)
	}
	return true
}

// AutoPool is BnBBudget; pool is ignored.
//
// Deprecated: call BnBBudget. AutoPool remains only because
// perfbench/pipeline.go still calls it.
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
