package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"activego/internal/par"
	"activego/internal/plan"
	"activego/internal/platform"
)

// TestPlannerFixtureShape pins the fixture generator's structural
// guarantees: the requested line count, chain components of at most
// plannerChainMax lines, and determinism across calls.
func TestPlannerFixtureShape(t *testing.T) {
	for _, lines := range PlannerPoints {
		a := PlannerFixture(lines)
		if len(a) != lines {
			t.Fatalf("PlannerFixture(%d) returned %d lines", lines, len(a))
		}
		if !reflect.DeepEqual(a, PlannerFixture(lines)) {
			t.Errorf("PlannerFixture(%d) is not deterministic", lines)
		}
		// Count distinct chains: every line writes c<chain>.v<pos>.
		chains := map[string]int{}
		for _, e := range a {
			chains[e.Writes[0].Name[:2]]++
		}
		for c, n := range chains {
			if n > plannerChainMax {
				t.Errorf("PlannerFixture(%d): chain %s has %d lines, max %d",
					lines, c, n, plannerChainMax)
			}
		}
	}
}

// TestPlannerExactnessLadder runs every ladder point directly: past the
// old 16-line enumeration cliff the branch-and-bound search must stay
// exact (no node-budget fallback), never lose to the greedy Algorithm 1,
// and match brute-force enumeration wherever enumeration is feasible.
func TestPlannerExactnessLadder(t *testing.T) {
	m := plan.MachineFromPlatform(platform.Default())
	for _, lines := range PlannerPoints {
		pt, err := plannerPoint(lines, m)
		if err != nil {
			t.Fatal(err)
		}
		if !pt.Exact {
			t.Errorf("%d lines: search fell back to Algorithm 1 (budget %d)",
				lines, plan.DefaultBnBNodeBudget)
		}
		if pt.TCSD > pt.GreedyTCSD {
			t.Errorf("%d lines: exact plan (%.6f) worse than greedy (%.6f)",
				lines, pt.TCSD, pt.GreedyTCSD)
		}
		if lines <= plan.MaxOptimalLines && !pt.OptimalMatch {
			t.Errorf("%d lines: branch-and-bound cost differs from enumerated optimum", lines)
		}
	}
}

// TestPlanner30LinesUnder50ms is the acceptance latency bound: a
// 30-viable-line program must plan exactly in under 50 ms per plan.
// The old planner would have silently degraded to Algorithm 1 here.
func TestPlanner30LinesUnder50ms(t *testing.T) {
	m := plan.MachineFromPlatform(platform.Default())
	estimates := PlannerFixture(30)
	_, stats, _, err := plan.Plan(estimates, plan.Constraints{}, m, plan.PlannerBnB, 0) // warm-up
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fallback {
		t.Fatal("30-line fixture fell back to Algorithm 1")
	}
	const iters = 20
	start := time.Now()
	for i := 0; i < iters; i++ {
		plan.Plan(estimates, plan.Constraints{}, m, plan.PlannerBnB, 0)
	}
	perOp := time.Since(start) / iters
	if perOp >= 50*time.Millisecond {
		t.Errorf("30-line exact plan took %v per op, acceptance bound is <50ms", perOp)
	}
	t.Logf("30-line exact plan: %v per op (%d nodes)", perOp, stats.Nodes)
}

// TestPlannerParallelInvariance extends the determinism contract to the
// planner study: results, table, and benchmark-manifest bytes must be
// identical between -j 1 and -j 8.
func TestPlannerParallelInvariance(t *testing.T) {
	serial, serialTbl, err := Planner(testParams())
	if err != nil {
		t.Fatal(err)
	}
	parallel, parTbl, err := Planner(testParams(), WithPool(par.New(8)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("planner results differ under the pool:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if s, p := serialTbl.String(), parTbl.String(); s != p {
		t.Errorf("planner table differs under the pool:\nserial:\n%s\nparallel:\n%s", s, p)
	}
	var sb, pb bytes.Buffer
	if err := serial.Bench(testParams()).Write(&sb); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Bench(testParams()).Write(&pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Errorf("planner manifest bytes differ under the pool (%d vs %d bytes)", sb.Len(), pb.Len())
	}
}
