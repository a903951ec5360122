package plan

import (
	"fmt"
	"reflect"
	"testing"

	"activego/internal/fault"
)

// bnbTestMachine mirrors the simulated platform's constants closely
// enough that unit costs, queue overheads, and transfer terms all weigh
// in at comparable magnitudes (the regime where planning is hard).
func bnbTestMachine() Machine {
	return Machine{
		HostCores: 8, HostRate: 1e9,
		CSECores: 4, CSERate: 2.5e8,
		FlashBW: 9e9, D2HBW: 5e9, D2HLat: 1e-5,
		HostMemBW: 3e10, DevMemBW: 1.5e10,
		C: 3.2,
	}
}

// randomEstimates fabricates n coupled line estimates from a splitmix64
// stream: compute/storage costs spread over two orders of magnitude and
// var flows drawn from a small name pool so lines genuinely contend
// over residency.
func randomEstimates(n int, seed uint64) []LineEstimate {
	state := seed
	next := func() uint64 {
		state++
		return fault.Mix64(state)
	}
	unit := func(scale float64) float64 {
		return scale * float64(next()%1000+1) / 1000
	}
	vars := []string{"a", "b", "c", "d", "e"}
	out := make([]LineEstimate, n)
	for i := 0; i < n; i++ {
		ct := unit(2e-4)
		e := LineEstimate{
			Line:   i + 1,
			Execs:  float64(next()%64 + 1),
			CTHost: ct,
			CTDev:  ct * (0.5 + 3*float64(next()%100)/100),
			SHost:  unit(3e-4),
			SDev:   unit(1.5e-4),
		}
		for _, v := range vars {
			if next()%3 == 0 {
				e.Reads = append(e.Reads, VarFlow{Name: v, Bytes: float64(next() % 2e6)})
			}
			if next()%4 == 0 {
				e.Writes = append(e.Writes, VarFlow{Name: v, Bytes: float64(next() % 2e6)})
			}
		}
		for _, r := range e.Reads {
			e.DIn += r.Bytes
		}
		for _, w := range e.Writes {
			e.DOut += w.Bytes
		}
		out[i] = e
	}
	return out
}

// randomConstraints pins a random subset of lines host-only.
func randomConstraints(n int, seed uint64) Constraints {
	cons := Constraints{HostOnly: map[int]string{}}
	state := seed
	for i := 1; i <= n; i++ {
		state++
		if fault.Mix64(state)%4 == 0 {
			cons.HostOnly[i] = "test pin"
		}
	}
	return cons
}

// requireOptimalPlan fails unless branch-and-bound, under the default
// budget, returns exactly the brute-force oracle's plan: the same
// partition (ties included) and bit-identical TCSD and THost.
func requireOptimalPlan(t *testing.T, name string, estimates []LineEstimate, cons Constraints, m Machine) {
	t.Helper()
	opt := Optimal(cloneEstimates(estimates), cons, m)
	var stats BnBStats
	bnb := BnBBudget(cloneEstimates(estimates), cons, m, 0, &stats)
	if stats.Fallback || bnb.Planner != PlannerBnB {
		t.Fatalf("%s: planner %q (fallback %t), want an exact %q plan", name, bnb.Planner, stats.Fallback, PlannerBnB)
	}
	if !bnb.Partition.Equal(opt.Partition) || bnb.TCSD != opt.TCSD || bnb.THost != opt.THost {
		t.Errorf("%s: BnB offloads %v (T_CSD %.17g, T_host %.17g), Optimal offloads %v (T_CSD %.17g, T_host %.17g)",
			name, bnb.Partition.Lines(), bnb.TCSD, bnb.THost, opt.Partition.Lines(), opt.TCSD, opt.THost)
	}
}

// TestBnBMatchesOptimalProperty is the exactness property the runtime
// relies on: over 1000 seeded random programs of up to MaxOptimalLines
// lines — constraints and pins included — branch-and-bound must return
// brute-force Optimal's plan exactly. Seed provenance: trial index into
// splitmix64, base seed 0xB4B5 chosen arbitrarily and fixed forever.
func TestBnBMatchesOptimalProperty(t *testing.T) {
	m := bnbTestMachine()
	const trials = 1000
	for trial := 0; trial < trials; trial++ {
		seed := uint64(0xB4B5 + trial)
		n := int(fault.Mix64(seed)%uint64(MaxOptimalLines)) + 1
		name := fmt.Sprintf("trial %d (n=%d, seed %#x)", trial, n, seed)
		requireOptimalPlan(t, name, randomEstimates(n, seed), randomConstraints(n, seed*31), m)
	}
}

// TestBnBMatchesOptimalOnTies pins the tie-break on exact ties, which
// plain random programs never produce. The constructed shapes hold a
// cost-neutral line (DevTotal+QueueOverhead == HostTotal), a
// never-executed line, and a strictly winning line before and after two
// cost-neutral lines; each runs with independent lines and with every
// line writing one shared variable, which puts them in one search
// component without billing any crossing. 3000 seeded random programs
// then turn about half their lines into such ties, with the residency
// crossings left in; a few of them (trial 2109 first) hold a tie that
// the suffix bound's summation order rounds out of sight. Seed
// provenance as in the property test, base seed 0x7777.
func TestBnBMatchesOptimalOnTies(t *testing.T) {
	m := bnbTestMachine()
	neutral := func(line int) LineEstimate {
		e := LineEstimate{Line: line, Execs: 3}
		e.SHost = e.QueueOverhead(m)
		return e
	}
	never := func(line int) LineEstimate {
		return LineEstimate{Line: line, Execs: 0, CTHost: 1e-4, CTDev: 1e-4}
	}
	win := func(line int) LineEstimate {
		return LineEstimate{Line: line, Execs: 1, CTHost: 1e-4, CTDev: 3e-4, SHost: 2e-3, SDev: 1e-3}
	}
	if e := neutral(1); e.DevTotal()+e.QueueOverhead(m) != e.HostTotal() {
		t.Fatalf("neutral line is not an exact tie: device %.17g vs host %.17g", e.DevTotal()+e.QueueOverhead(m), e.HostTotal())
	}
	shapes := map[string][]func(int) LineEstimate{
		"neutral":              {neutral},
		"never-executed":       {win, never, win},
		"win-then-two-neutral": {win, neutral, neutral},
		"two-neutral-then-win": {neutral, neutral, win},
		"neutral-win-neutral":  {neutral, win, neutral},
		"never-neutral-win":    {never, neutral, win},
	}
	for name, shape := range shapes {
		for _, shared := range []bool{false, true} {
			estimates := make([]LineEstimate, len(shape))
			for i, mk := range shape {
				estimates[i] = mk(i + 1)
				if shared {
					estimates[i].Writes = []VarFlow{{Name: "w", Bytes: 1e5}}
					estimates[i].DOut = 1e5
				}
			}
			requireOptimalPlan(t, fmt.Sprintf("%s (shared=%t)", name, shared), estimates, Constraints{}, m)
		}
	}

	for trial := 0; trial < 3000; trial++ {
		seed := uint64(0x7777 + trial)
		n := int(fault.Mix64(seed)%12) + 1
		estimates := randomEstimates(n, seed)
		for i := range estimates {
			e := &estimates[i]
			switch fault.Mix64(seed*131+uint64(i)) % 4 {
			case 0: // cost-neutral, as neutral above
				*e = LineEstimate{Line: e.Line, Execs: e.Execs, Reads: e.Reads, Writes: e.Writes, DIn: e.DIn, DOut: e.DOut}
				e.SHost = e.QueueOverhead(m)
			case 1: // never executed: no queue overhead, equal unit costs
				e.Execs, e.CTDev, e.SDev = 0, e.CTHost, e.SHost
			case 2:
				e.Reads, e.DIn = nil, 0 // write-only sharing: coupled, never crossing
			}
		}
		requireOptimalPlan(t, fmt.Sprintf("tie trial %d (n=%d, seed %#x)", trial, n, seed), estimates, randomConstraints(n, seed*31), m)
	}
}

// TestBnBDeterministic pins that two runs over the same inputs produce
// identical partitions and search statistics.
func TestBnBDeterministic(t *testing.T) {
	m := bnbTestMachine()
	estimates := randomEstimates(14, 77)
	var s1, s2 BnBStats
	r1 := BnBBudget(cloneEstimates(estimates), Constraints{}, m, 0, &s1)
	r2 := BnBBudget(cloneEstimates(estimates), Constraints{}, m, 0, &s2)
	if !r1.Partition.Equal(r2.Partition) || r1.TCSD != r2.TCSD {
		t.Fatalf("partitions differ across identical runs: %v vs %v", r1.Partition, r2.Partition)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
}

// TestBnBBudgetFallback pins the blowout path: a one-node budget on a
// coupled program cannot finish, so the result must be Algorithm 1's
// plan with Fallback set.
func TestBnBBudgetFallback(t *testing.T) {
	m := bnbTestMachine()
	estimates := randomEstimates(12, 9)
	var stats BnBStats
	res := BnBBudget(cloneEstimates(estimates), Constraints{}, m, 1, &stats)
	if !stats.Fallback {
		t.Fatal("budget 1 did not trigger fallback")
	}
	want := Algorithm1(cloneEstimates(estimates), Constraints{}, m)
	if res.Planner != PlannerAlgorithm1 {
		t.Errorf("planner = %q, want %q", res.Planner, PlannerAlgorithm1)
	}
	if !res.Partition.Equal(want.Partition) || res.TCSD != want.TCSD {
		t.Errorf("fallback plan differs from Algorithm1: %v vs %v", res.Partition, want.Partition)
	}
}

// TestBnBExactGuarantee pins the static exactness constant to the
// default budget: a single component of BnBExactLines free lines has a
// worst-case tree of 2^(n+1)−2 nodes, which must fit the budget (the
// analysis layer's AV008 threshold leans on this).
func TestBnBExactGuarantee(t *testing.T) {
	worst := (1 << (BnBExactLines + 1)) - 2
	if worst > DefaultBnBNodeBudget {
		t.Fatalf("worst case for %d lines is %d nodes > budget %d", BnBExactLines, worst, DefaultBnBNodeBudget)
	}
	if next := (1 << (BnBExactLines + 2)) - 2; next <= DefaultBnBNodeBudget {
		t.Fatalf("BnBExactLines is understated: %d lines also fit (%d ≤ %d)", BnBExactLines+1, next, DefaultBnBNodeBudget)
	}
}

// TestBnBComponentsDecompose pins the component decomposition: two
// independent chains must be searched as two components, and the
// worst-case node count is the sum, not the product.
func TestBnBComponentsDecompose(t *testing.T) {
	m := bnbTestMachine()
	var estimates []LineEstimate
	for c := 0; c < 2; c++ {
		chain := randomEstimates(11, uint64(300+c))
		for i := range chain {
			chain[i].Line = c*11 + i + 1
			for j := range chain[i].Reads {
				chain[i].Reads[j].Name = fmt.Sprintf("c%d.%s", c, chain[i].Reads[j].Name)
			}
			for j := range chain[i].Writes {
				chain[i].Writes[j].Name = fmt.Sprintf("c%d.%s", c, chain[i].Writes[j].Name)
			}
		}
		estimates = append(estimates, chain...)
	}
	var stats BnBStats
	res := BnBBudget(estimates, Constraints{}, m, 0, &stats)
	if stats.Fallback {
		t.Fatal("unexpected fallback")
	}
	if stats.Components != 2 {
		t.Fatalf("components = %d, want 2", stats.Components)
	}
	perChainWorst := (1 << 12) - 2
	if stats.Nodes > 2*perChainWorst {
		t.Fatalf("nodes = %d exceeds the summed per-component worst case %d", stats.Nodes, 2*perChainWorst)
	}
	if res.TCSD > res.THost {
		t.Fatalf("TCSD %.17g worse than all-host %.17g", res.TCSD, res.THost)
	}
}
