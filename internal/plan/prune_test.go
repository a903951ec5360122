package plan

import (
	"fmt"
	"math"
	"testing"
)

// pruneMachine: only D2HBW/D2HLat matter to EvaluatePlacement and
// NeverWin, but keep the full shape realistic.
var pruneMachine = Machine{
	HostCores: 4, HostRate: 1e9,
	FlashBW: 9e9, D2HBW: 5e9, D2HLat: 10e-6,
	HostMemBW: 2e10, C: 3,
}

// mix is splitmix64 — the test generator's only randomness source, so
// every trial is reproducible from its seed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// genEstimates builds a deterministic pseudo-random estimate set with a
// mix of device-hostile lines (compute-heavy under the slowdown C) and
// device-friendly lines (storage-heavy, where the CSD's array-only path
// wins), sharing variables so residency billing couples the lines.
func genEstimates(seed uint64, n int) []LineEstimate {
	s := seed
	next := func() float64 {
		s = mix(s)
		return float64(s>>11) / float64(1<<53)
	}
	vars := []string{"a", "b", "c", "d"}
	out := make([]LineEstimate, n)
	for i := range out {
		ct := 1e-4 + next()*1e-3
		e := LineEstimate{Line: i + 1, Execs: 1 + math.Floor(next()*4), CTHost: ct}
		if next() < 0.5 {
			e.CTDev = ct * (5 + 10*next()) // offload hostile
			e.SHost = next() * 1e-5
		} else {
			e.CTDev = ct * (0.1 + 0.3*next()) // offload friendly
			e.SHost = 1e-4 + next()*1e-3
		}
		e.SDev = e.SHost * 0.5
		for _, v := range vars {
			if next() < 0.4 {
				e.Reads = append(e.Reads, VarFlow{Name: v, Bytes: next() * 1e6})
			}
			if next() < 0.3 {
				e.Writes = append(e.Writes, VarFlow{Name: v, Bytes: next() * 1e6})
			}
		}
		out[i] = e
	}
	return out
}

// TestNeverWinPreservesArgmin is the soundness property the core wiring
// relies on: pinning every NeverWin line into the constraints must leave
// the partition — including the lowest-mask tie-break — and the
// projected time bit-identical, for the Optimal oracle and the runtime's
// BnBBudget alike, while shrinking the search.
func TestNeverWinPreservesArgmin(t *testing.T) {
	totalPruned := 0
	for trial := 0; trial < 60; trial++ {
		seed := uint64(trial)*0x9e3779b9 + 1
		es := genEstimates(seed, 10)
		base := Optimal(es, Constraints{}, pruneMachine)
		pruned := NeverWin(es, pruneMachine)
		totalPruned += len(pruned)
		cons := Constraints{HostOnly: map[int]string{}}
		for _, p := range pruned {
			if p.Margin <= 0 {
				t.Errorf("trial %d: pruned line %d with non-positive margin %g", trial, p.Line, p.Margin)
			}
			if base.Partition.OnCSD(p.Line) {
				t.Errorf("trial %d: line %d pruned as never-win but the exact argmin offloads it", trial, p.Line)
			}
			cons.HostOnly[p.Line] = p.Reason
		}
		for name, got := range map[string]*Result{
			"optimal": Optimal(es, cons, pruneMachine),
			"bnb":     BnBBudget(es, cons, pruneMachine, 0, nil),
		} {
			if fmt.Sprint(got.Partition.Lines()) != fmt.Sprint(base.Partition.Lines()) {
				t.Errorf("trial %d: %s partition changed under pruning: %v -> %v",
					trial, name, base.Partition.Lines(), got.Partition.Lines())
			}
			if got.TCSD != base.TCSD {
				t.Errorf("trial %d: %s projected time changed under pruning: %g -> %g", trial, name, base.TCSD, got.TCSD)
			}
		}
	}
	if totalPruned == 0 {
		t.Fatal("generator never produced a prunable line; the property test is vacuous")
	}
}

func TestNeverWinPrunesHopelessLine(t *testing.T) {
	es := []LineEstimate{{Line: 1, Execs: 1, CTHost: 1e-3, CTDev: 50e-3}}
	pruned := NeverWin(es, pruneMachine)
	if len(pruned) != 1 || pruned[0].Line != 1 {
		t.Fatalf("compute-hostile line not pruned: %v", pruned)
	}
	if pruned[0].Margin <= 0 || pruned[0].Reason == "" {
		t.Errorf("bad proof record: %+v", pruned[0])
	}
}

func TestNeverWinKeepsWinnableLine(t *testing.T) {
	// Storage-heavy: the CSD reads the array at full bandwidth while the
	// host pays the external link — the canonical offload win.
	es := []LineEstimate{{Line: 1, Execs: 1, CTHost: 1e-4, CTDev: 3e-4, SHost: 2e-3, SDev: 1e-3}}
	if pruned := NeverWin(es, pruneMachine); len(pruned) != 0 {
		t.Fatalf("winnable line pruned: %v", pruned)
	}
}

func TestNeverWinSkipsNeverExecutedLines(t *testing.T) {
	es := []LineEstimate{{Line: 1, Execs: 0, CTHost: 1e-3, CTDev: 50e-3}}
	if pruned := NeverWin(es, pruneMachine); len(pruned) != 0 {
		t.Fatalf("zero-exec line pruned: %v", pruned)
	}
}

// TestNeverWinRespectsDownstreamReads pins the rehoming term: a line
// whose device cost exceeds its host cost by less than the transfer
// swing of its touched variables must survive — offloading it could
// still pay for itself by keeping a later large read device-resident.
func TestNeverWinRespectsDownstreamReads(t *testing.T) {
	bigRead := 5e6 // 1 ms across the 5 GB/s link
	es := []LineEstimate{
		{Line: 1, Execs: 1, CTHost: 1e-4, CTDev: 2e-4,
			Writes: []VarFlow{{Name: "v", Bytes: bigRead}}},
		{Line: 2, Execs: 1, CTHost: 1e-4, CTDev: 1.2e-4,
			Reads: []VarFlow{{Name: "v", Bytes: bigRead}}},
	}
	for _, p := range NeverWin(es, pruneMachine) {
		if p.Line == 1 {
			t.Fatalf("line 1 pruned despite a downstream read it could keep device-side: %+v", p)
		}
	}
}

// benchEstimates: 14 offload candidates, half provably never-win.
// Pruning them drops the Optimal enumeration from 2^14 to 2^7 masks.
func benchEstimates() []LineEstimate {
	es := make([]LineEstimate, 14)
	for i := range es {
		e := LineEstimate{Line: i + 1, Execs: 2, CTHost: 1e-3}
		if i%2 == 0 {
			e.CTDev = 50e-3 // hopeless: device 50× the host, no transfer upside
		} else {
			e.CTDev = 0.3e-3
			e.SHost = 2e-4
			e.SDev = 1e-4
			e.Reads = []VarFlow{{Name: "v", Bytes: 1e5}}
			e.Writes = []VarFlow{{Name: "v", Bytes: 1e5}}
		}
		es[i] = e
	}
	return es
}

func BenchmarkOptimalUnpruned(b *testing.B) {
	es := benchEstimates()
	for i := 0; i < b.N; i++ {
		Optimal(es, Constraints{}, pruneMachine)
	}
	b.ReportMetric(float64(int(1)<<len(es)), "masks")
}

func BenchmarkOptimalPruned(b *testing.B) {
	es := benchEstimates()
	cons := Constraints{HostOnly: map[int]string{}}
	for _, p := range NeverWin(es, pruneMachine) {
		cons.HostOnly[p.Line] = p.Reason
	}
	if len(cons.HostOnly) == 0 {
		b.Fatal("benchmark fixture prunes nothing")
	}
	for i := 0; i < b.N; i++ {
		Optimal(es, cons, pruneMachine)
	}
	free := len(es) - len(cons.HostOnly)
	b.ReportMetric(float64(int(1)<<free), "masks")
}
