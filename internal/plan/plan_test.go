package plan

import (
	"testing"

	"activego/internal/codegen"
	"activego/internal/platform"
	"activego/internal/profile"
)

func testMachine() Machine {
	return MachineFromPlatform(platform.Default())
}

// est builds a LineEstimate with simple var flows: one input var "in",
// one output var named after the line.
func est(line int, ctHost, sHost, sDev float64, din, dout float64, readVar, writeVar string) LineEstimate {
	m := testMachine()
	e := LineEstimate{
		Line: line, Execs: 1,
		CTHost: ctHost, CTDev: m.C * ctHost,
		SHost: sHost, SDev: sDev,
		DIn: din, DOut: dout,
	}
	if readVar != "" {
		e.Reads = []VarFlow{{Name: readVar, Bytes: din}}
	}
	if writeVar != "" {
		e.Writes = []VarFlow{{Name: writeVar, Bytes: dout}}
	}
	return e
}

// scanPipeline models a classic ISP-friendly program: a big load whose
// host path is link-bound, a selective filter, and a tiny reduce.
func scanPipeline() []LineEstimate {
	const mb = 1 << 20
	return []LineEstimate{
		est(1, 0.0008, 0.0035, 0.0017, 0, 16*mb, "", "t"), // load: 16 MB from storage, light decode
		est(2, 0.0004, 0, 0, 16*mb, 1*mb, "t", "f"),       // filter: 16x reduction
		est(3, 0.0001, 0, 0, 1*mb, 8, "f", "r"),           // reduce to a scalar
	}
}

func TestOptimalOffloadsScanPipeline(t *testing.T) {
	m := testMachine()
	res := Optimal(scanPipeline(), Constraints{}, m)
	if !res.Partition.OnCSD(1) || !res.Partition.OnCSD(2) {
		t.Errorf("scan pipeline should offload load+filter: %v", res.Partition.Lines())
	}
	if res.TCSD >= res.THost {
		t.Errorf("projected TCSD %v !< THost %v", res.TCSD, res.THost)
	}
}

func TestOptimalKeepsComputeBoundOnHost(t *testing.T) {
	m := testMachine()
	// A GEMM-like line: compute dominates, no reduction.
	const mb = 1 << 20
	ests := []LineEstimate{
		est(1, 0.0005, 0.0008, 0.0004, 0, 4*mb, "", "a"),
		est(2, 0.050, 0, 0, 4*mb, 4*mb, "a", "c"), // heavy compute, no shrink
	}
	res := Optimal(ests, Constraints{}, m)
	if res.Partition.OnCSD(2) {
		t.Errorf("compute-bound line offloaded: %v", res.Partition.Lines())
	}
}

func TestAlgorithm1MatchesOptimalOnPipeline(t *testing.T) {
	m := testMachine()
	ests := scanPipeline()
	opt := Optimal(ests, Constraints{}, m)
	greedy := Algorithm1(ests, Constraints{}, m)
	if !greedy.Partition.Equal(opt.Partition) {
		t.Errorf("greedy %v vs optimal %v", greedy.Partition.Lines(), opt.Partition.Lines())
	}
}

func TestAlgorithm1LiteralCannotStartUnprofitableChain(t *testing.T) {
	m := testMachine()
	// The load line alone is unprofitable (its D_out return eats the
	// saving); the literal pseudocode therefore offloads nothing, while
	// the chain-commit variant sees the whole pipeline.
	ests := scanPipeline()
	lit := Algorithm1Literal(ests, Constraints{}, m)
	chain := Algorithm1(ests, Constraints{}, m)
	if len(lit.Partition.Lines()) >= len(chain.Partition.Lines()) {
		t.Errorf("literal %v should offload less than chain %v",
			lit.Partition.Lines(), chain.Partition.Lines())
	}
}

func TestEvaluatePlacementChargesCrossings(t *testing.T) {
	m := testMachine()
	ests := scanPipeline()
	allHost := EvaluatePlacement(ests, codegen.NewPartition(), m).Time
	// Put only the middle line on the CSD: its input must cross down and
	// its output crosses back, so this should beat neither endpoint much.
	middle := EvaluatePlacement(ests, codegen.NewPartition(2), m).Time
	full := EvaluatePlacement(ests, codegen.NewPartition(1, 2, 3), m).Time
	if full >= allHost {
		t.Errorf("full offload %v !< all-host %v", full, allHost)
	}
	if middle <= full {
		t.Errorf("middle-only %v should pay crossings vs full %v", middle, full)
	}
}

func TestQueueOverheadDiscouragesTrivialLines(t *testing.T) {
	m := testMachine()
	// A zero-cost line whose operand is tiny: queue round-trips make the
	// CSD placement worse.
	ests := []LineEstimate{
		est(1, 0, 0, 0, 0, 64, "", "x"),
		est(2, 0, 0, 0, 64, 8, "x", "y"),
	}
	res := Optimal(ests, Constraints{}, m)
	if len(res.Partition.Lines()) != 0 {
		t.Errorf("trivial lines offloaded: %v", res.Partition.Lines())
	}
}

func TestBuildEstimatesUsesBackendAndC(t *testing.T) {
	m := testMachine()
	preds := []profile.Prediction{{
		Line: 1, KernelWork: 28.8e9, GlueWork: 3.6e9, CopyBytes: 34e9, StorageBytes: 4.4e9, Execs: 1,
	}}
	ests := BuildEstimates(preds, m, codegen.C)
	e := ests[0]
	// Kernel across 8 cores at 3.6e9 = 1s; C backend has no glue/copies.
	if e.CTHost < 0.99 || e.CTHost > 1.01 {
		t.Errorf("CTHost %v, want ~1s", e.CTHost)
	}
	if e.CTDev < e.CTHost*m.C*0.999 || e.CTDev > e.CTHost*m.C*1.001 {
		t.Errorf("CTDev %v, want C x CTHost", e.CTDev)
	}
	// Host storage path is pipelined: max(flash, link) = 1s at link speed.
	if e.SHost < 0.99 || e.SHost > 1.01 {
		t.Errorf("SHost %v", e.SHost)
	}
	if e.SDev >= e.SHost {
		t.Errorf("SDev %v must beat SHost %v", e.SDev, e.SHost)
	}

	// The interpreted backend pays glue serially and copies on the bus.
	ei := BuildEstimates(preds, m, codegen.Interpreted)[0]
	if ei.CTHost < e.CTHost+1.9 { // +1s glue +1s copies
		t.Errorf("interpreted CTHost %v, want ~3s", ei.CTHost)
	}
}

func TestConstraintsMaskPinnedLines(t *testing.T) {
	m := testMachine()
	cons := Constraints{HostOnly: map[int]string{1: `host-only builtin "print"`}}
	// Without constraints the scan pipeline offloads lines 1-2; pinning
	// line 1 must keep it off the CSD in every planner.
	bnb := func(es []LineEstimate, cons Constraints, m Machine) *Result { return BnBBudget(es, cons, m, 0, nil) }
	for name, run := range map[string]func([]LineEstimate, Constraints, Machine) *Result{
		"bnb": bnb, "optimal": Optimal, "algorithm1": Algorithm1, "algorithm1-literal": Algorithm1Literal,
	} {
		res := run(scanPipeline(), cons, m)
		if res.Partition.OnCSD(1) {
			t.Errorf("%s offloaded pinned line 1: %v", name, res.Partition.Lines())
		}
	}
}

func TestOptimalEnumeratesAroundPinnedLines(t *testing.T) {
	m := testMachine()
	// Pinning must reduce the enumeration space, not the estimate list:
	// the other lines still compete for the CSD.
	cons := Constraints{HostOnly: map[int]string{3: "x"}}
	res := Optimal(scanPipeline(), cons, m)
	if !res.Partition.OnCSD(1) || !res.Partition.OnCSD(2) {
		t.Errorf("pinned line 3 should not stop lines 1-2 offloading: %v", res.Partition.Lines())
	}
	if res.Partition.OnCSD(3) {
		t.Error("pinned line 3 offloaded")
	}
}

func TestPlannerLabels(t *testing.T) {
	m := testMachine()
	ests := scanPipeline()
	if got := Optimal(ests, Constraints{}, m).Planner; got != PlannerOptimal {
		t.Errorf("Optimal label = %q", got)
	}
	if got := Algorithm1(ests, Constraints{}, m).Planner; got != PlannerAlgorithm1 {
		t.Errorf("Algorithm1 label = %q", got)
	}
	if got := Algorithm1Literal(ests, Constraints{}, m).Planner; got != PlannerAlgorithm1Literal {
		t.Errorf("Algorithm1Literal label = %q", got)
	}
}

// TestOptimalPanicsPastLimit pins the oracle's refusal: past
// MaxOptimalLines free lines Optimal must panic rather than answer with
// another algorithm's plan. Pinned lines do not count toward the limit.
func TestOptimalPanicsPastLimit(t *testing.T) {
	m := testMachine()
	var ests []LineEstimate
	for i := 1; i <= MaxOptimalLines+1; i++ {
		ests = append(ests, est(i, 0.001, 0, 0, 64, 64, "", ""))
	}
	if res := Optimal(ests, Constraints{HostOnly: map[int]string{1: "pin"}}, m); res.Planner != PlannerOptimal {
		t.Errorf("Optimal at the limit: planner %q, want %q", res.Planner, PlannerOptimal)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Optimal over %d free lines did not panic", MaxOptimalLines+1)
		}
	}()
	Optimal(ests, Constraints{}, m)
}

func TestDescribeNamesPlanner(t *testing.T) {
	m := testMachine()
	res := Optimal(scanPipeline(), Constraints{}, m)
	if want := "plan[optimal]:"; len(res.Describe()) == 0 || res.Describe()[:len(want)] != want {
		t.Errorf("Describe() = %q, want %q prefix", res.Describe(), want)
	}
}

// TestChainSlackRidesOutCheapLines pins chainAbandonSlack's behavior: a
// profitable chain interrupted by a near-zero-cost line whose own delta
// is slightly positive (queue overhead) must survive to the profitable
// tail. With slack 0 the chain would be abandoned at the cheap line,
// because its positive delta exceeds bestDelta + HostTotal() (~0).
func TestChainSlackRidesOutCheapLines(t *testing.T) {
	m := testMachine()
	const mb = 1 << 20
	ests := []LineEstimate{
		est(1, 0.0008, 0.0035, 0.0017, 0, 16*mb, "", "t"), // big link-bound load
		est(2, 0, 0, 0, 8, 8, "", "k"),                    // free scalar line: tiny positive delta
		est(3, 0.0004, 0, 0, 16*mb, 8, "t", "r"),          // the reduce that makes the chain pay
	}
	res := Algorithm1(ests, Constraints{}, m)
	if !res.Partition.OnCSD(1) || !res.Partition.OnCSD(3) {
		t.Fatalf("chain should survive the cheap middle line: %v", res.Partition.Lines())
	}
	// The slack must not be so large that the chain walk stops pruning:
	// the constant is bounded by one second.
	if chainAbandonSlack > 1.0 {
		t.Errorf("chainAbandonSlack = %v, regression against pinned rationale (<= 1s)", chainAbandonSlack)
	}
}

func TestEvaluatePlacementDetailExposesCrossings(t *testing.T) {
	m := testMachine()
	ests := scanPipeline()
	// Middle line alone on the CSD: "t" crosses down (16 MB), "f" crosses
	// back up at line 3 (1 MB).
	ev := EvaluatePlacement(ests, codegen.NewPartition(2), m)
	const mb = 1 << 20
	if ev.Crossings != 2 {
		t.Errorf("Crossings = %d, want 2", ev.Crossings)
	}
	if want := float64(17 * mb); ev.CrossBytes != want {
		t.Errorf("CrossBytes = %v, want %v", ev.CrossBytes, want)
	}
}
