// Offload pruning: lines whose offload provably cannot win under
// Equation 1, pinned to the host before planning. This is the
// planner-side half of the AV011 advisory — the analysis layer reports
// the finding, this file proves it. The same margin machinery orders
// and prunes the branch-and-bound search (bnb.go).
package plan

import (
	"fmt"
	"sort"
)

// PrunedLine is one line the planner need not consider offloading, with
// the proof margin (seconds by which the cheapest possible offload still
// loses).
type PrunedLine struct {
	Line   int
	Margin float64
	Reason string
}

// marginProof is one line's never-win accounting: the device-vs-host
// unit overrun and the worst-case transfer swing any partition could
// recover by offloading the line. Proved means the overrun strictly
// exceeds the swing under Equation 1 — offloading the line loses under
// every partition of the remaining lines.
type marginProof struct {
	// Margin = Over − Swing; positive means the offload can never win.
	Margin float64
	// Over is DevTotal + QueueOverhead − HostTotal.
	Over float64
	// Swing is the worst-case transfer saving any partition could credit
	// the offload with.
	Swing float64
	// Proved is false for lines that never execute (Execs ≤ 0): there is
	// nothing to prove, and the margin must not prune them.
	Proved bool
}

// neverWinMargins computes the per-line never-win proof terms against
// the residency-billing walk (EvaluatePlacement). Index i of the result
// corresponds to estimates[i].
//
// The proof obligation per line L: flipping L from CSD to host changes
//
//   - L's own unit cost: −(DevTotal + QueueOverhead) + HostTotal;
//   - crossings at L's own reads: each read can at worst begin to
//     cross, costing xfer(bytes);
//   - crossings downstream: L rehomes every variable it reads or
//     writes; for each such variable only the first later access can
//     bill differently (any access re-converges the residency), so the
//     worst case is one extra crossing of the largest later read.
//
// If DevTotal + QueueOverhead − HostTotal exceeds the sum of those
// worst-case transfer terms, no partition can recover the difference:
// offloading L loses outright.
func neverWinMargins(estimates []LineEstimate, m Machine) []marginProof {
	// largestLaterRead[i][v]: the largest xfer() of a read of v at any
	// line after index i.
	largestLaterRead := make([]map[string]float64, len(estimates))
	later := map[string]float64{}
	for i := len(estimates) - 1; i >= 0; i-- {
		snapshot := make(map[string]float64, len(later))
		for k, v := range later {
			snapshot[k] = v
		}
		largestLaterRead[i] = snapshot
		for _, r := range estimates[i].Reads {
			if x := m.xfer(r.Bytes); x > later[r.Name] {
				later[r.Name] = x
			}
		}
	}

	out := make([]marginProof, len(estimates))
	for i := range estimates {
		e := &estimates[i]
		// Worst-case transfer swing from flipping L to the host.
		swing := 0.0
		touched := map[string]bool{}
		for _, r := range e.Reads {
			swing += m.xfer(r.Bytes)
			touched[r.Name] = true
		}
		for _, w := range e.Writes {
			touched[w.Name] = true
		}
		names := make([]string, 0, len(touched))
		for v := range touched {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			swing += largestLaterRead[i][v]
		}
		over := e.DevTotal() + e.QueueOverhead(&m) - e.HostTotal()
		out[i] = marginProof{
			Margin: over - swing,
			Over:   over,
			Swing:  swing,
			Proved: e.Execs > 0,
		}
	}
	return out
}

// NeverWin returns the lines whose assignment to the CSD strictly
// increases EvaluatePlacement's total under *every* partition of the
// remaining lines, sorted by line. Pinning them into Constraints
// preserves the plan of BnBBudget and Optimal exactly, including the
// tie-break they share (of two equally cheap plans, the one that runs
// the last line where they differ on the host), because any partition
// that offloads such a line is strictly beaten by the same partition
// with the line flipped to the host. The inequality is strict, so no
// tied plan is lost and committed plans never change shape except by
// getting cheaper to find.
func NeverWin(estimates []LineEstimate, m Machine) []PrunedLine {
	margins := neverWinMargins(estimates, m)
	var out []PrunedLine
	for i := range estimates {
		e := &estimates[i]
		mp := margins[i]
		if !mp.Proved || mp.Margin <= 0 {
			continue
		}
		out = append(out, PrunedLine{
			Line:   e.Line,
			Margin: mp.Margin,
			Reason: fmt.Sprintf("offload can never win: device run + queue dispatch costs %.3gs more than the host run, beyond the %.3gs any transfer saving could recover", mp.Over, mp.Swing),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}
