// Package plan implements the paper's task-assignment machinery: the
// Equation 1 net-profit model (§II-A), the exact branch-and-bound
// argmin the runtime plans with (BnBBudget, checked against the
// brute-force Optimal), and Algorithm 1, the greedy per-line CSD code
// assignment (§III-B). Plan is the one entry every caller plans through:
// it pins the never-win lines, runs the chosen planner, and records the
// plan's provenance.
//
// Inputs are the sampling phase's extrapolated per-line predictions;
// outputs are a codegen.Partition plus the per-line estimates the runtime
// monitor later compares against measured throughput (§III-D).
package plan

import (
	"fmt"
	"maps"
	"sort"

	"activego/internal/codegen"
	"activego/internal/platform"
	"activego/internal/profile"
)

// Machine carries the platform constants Equation 1 needs. Device
// compute is priced as C × CTHost (§III-A), so the CSE's own core count
// and rate are not among them.
type Machine struct {
	HostCores int
	HostRate  float64 // work units/s/core
	FlashBW   float64 // internal array read bandwidth, bytes/s
	D2HBW     float64 // external link bandwidth, bytes/s
	D2HLat    float64 // external link latency, s
	HostMemBW float64
	// C is the host→CSD compute slowdown constant of §III-A, measured by
	// perf counters or the calibration microbenchmark.
	C float64
}

// xfer prices moving bytes of one variable across the host-CSD link.
// Machine's methods and helpers take it by pointer, so inlined calls
// never copy the whole struct.
func (m *Machine) xfer(bytes float64) float64 { return bytes/m.D2HBW + m.D2HLat }

// MachineFromPlatform extracts the constants from a live platform,
// measuring C with the calibration microbenchmark.
func MachineFromPlatform(p *platform.Platform) Machine {
	return Machine{
		HostCores: p.Cfg.Host.Cores,
		HostRate:  p.Cfg.Host.Rate,
		FlashBW:   p.Dev.Array.Geometry().EffectiveReadBW(),
		D2HBW:     p.Cfg.Inter.D2HBandwidth,
		D2HLat:    p.Cfg.Inter.D2HLatency,
		HostMemBW: p.Cfg.Inter.HostMemBW,
		C:         p.MeasureSlowdown(),
	}
}

// VarFlow is one variable's predicted byte volume on a line.
type VarFlow struct {
	Name  string
	Bytes float64
}

// LineEstimate is Equation 1's per-line quantities, extrapolated to full
// scale. Times are seconds; DIn/DOut are bytes of named-variable traffic.
type LineEstimate struct {
	Line   int
	Execs  float64
	CTHost float64 // compute on host (generated native code)
	CTDev  float64 // compute on CSD = C × CTHost, per §III-A
	SHost  float64 // storage access time via the host path (array + link)
	SDev   float64 // storage access time via the device path (array only)
	DIn    float64 // bytes read from program variables
	DOut   float64 // bytes written to program variables
	Reads  []VarFlow
	Writes []VarFlow
}

// HostTotal is the line's full cost when it runs on the host.
func (e *LineEstimate) HostTotal() float64 { return e.CTHost + e.SHost }

// DevTotal is the line's full cost when it runs on the CSD.
func (e *LineEstimate) DevTotal() float64 { return e.CTDev + e.SDev }

// queueBytes is the per-invocation NVMe traffic of one offloaded line:
// an SQE down, a CQE back, and the status-update message (§III-C-b).
const queueBytes = 64 + 16 + 64

// QueueOverhead prices the call-queue dispatch of the line's dynamic
// instances: each offloaded invocation costs a link round trip plus the
// queue-entry bytes. Cheap lines feel this; it is why a free-standing
// scalar line belongs on the host even when its operand is device-side.
func (e *LineEstimate) QueueOverhead(m *Machine) float64 {
	return e.Execs * (2*m.D2HLat + queueBytes/m.D2HBW)
}

// ComputeTime prices a cost prediction on a compute unit under a backend.
func computeTime(p profile.Prediction, cores int, rate float64, b codegen.Backend, memBW float64) float64 {
	t := p.KernelWork / (float64(cores) * rate)
	t += b.GlueFactor * p.GlueWork / rate // glue is serial
	if !b.CopyElim {
		t += p.CopyBytes / memBW
	}
	return t
}

// BuildEstimates converts sampling-phase predictions into per-line
// Equation 1 estimates for machine m under backend b.
func BuildEstimates(preds []profile.Prediction, m Machine, b codegen.Backend) []LineEstimate {
	out := make([]LineEstimate, len(preds))
	for i, p := range preds {
		ctHost := computeTime(p, m.HostCores, m.HostRate, b, m.HostMemBW)
		// Host storage reads pipeline the array and the external link, so
		// the host pays the slower stage (the 5 GB/s link), while the CSD
		// pays only the 9 GB/s array — Equation 1's asymmetry.
		sHost := p.StorageBytes / m.FlashBW
		if t := p.StorageBytes / m.D2HBW; t > sHost {
			sHost = t
		}
		e := LineEstimate{
			Line:   p.Line,
			Execs:  p.Execs,
			CTHost: ctHost,
			CTDev:  m.C * ctHost,
			SHost:  sHost,
			SDev:   p.StorageBytes / m.FlashBW,
			DIn:    p.InBytes,
			DOut:   p.OutBytes,
		}
		for _, r := range p.Reads {
			e.Reads = append(e.Reads, VarFlow{Name: r.Name, Bytes: r.Bytes})
		}
		for _, w := range p.Writes {
			e.Writes = append(e.Writes, VarFlow{Name: w.Name, Bytes: w.Bytes})
		}
		out[i] = e
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

// Constraints carries the static analysis's placement restrictions into
// the planners. The zero value means "no restrictions". plan cannot
// import internal/analysis, which imports plan for AV008's search size
// (SearchSize), so callers (core) adapt analysis.Report.HostPinned()
// into this lightweight form.
type Constraints struct {
	// HostOnly maps a line that must not run on the CSD to the reason
	// (e.g. `host-only builtin "print"`).
	HostOnly map[int]string
}

// Pinned reports whether line is barred from the CSD, and why.
func (c Constraints) Pinned(line int) (string, bool) {
	reason, ok := c.HostOnly[line]
	return reason, ok
}

// Planner labels for Result.Planner.
const (
	PlannerOptimal           = "optimal"
	PlannerAlgorithm1        = "algorithm1"
	PlannerAlgorithm1Literal = "algorithm1-literal"
)

// Result is the planner's output.
type Result struct {
	Partition codegen.Partition
	Estimates []LineEstimate
	THost     float64 // projected all-host execution time
	TCSD      float64 // projected time under the chosen partition
	// Planner names the algorithm that actually produced the partition.
	// The runtime's exact planner, BnBBudget, returns Algorithm1's plan
	// when its node budget blows, so this is the only record of whether
	// the caller really got the exact argmin.
	Planner string
	// Provenance is the frozen plan-time decision record (per-line
	// Equation 1 terms, pin/prune verdicts), attached by Plan; the
	// planners themselves leave it nil.
	Provenance *Provenance
}

// PlannerChoices is the -planner flag's vocabulary (DESIGN.md §16): the
// exact branch-and-bound planner (the default) and the paper's
// Algorithm 1 with its literal-pseudocode ablation.
const PlannerChoices = "bnb | algorithm1 | algorithm1-literal"

// Plan is the one planning entry (DESIGN.md §16). It pins every
// NeverWin line into a copy of cons (a line cons already pins keeps its
// reason), runs planner — one of PlannerChoices, "" meaning bnb — with
// budget as branch-and-bound's node budget (0 = DefaultBnBNodeBudget),
// and attaches the provenance of the pinned constraints. It returns the
// plan, the branch-and-bound effort (zero unless bnb ran; Fallback
// records a node-budget blowout to Algorithm 1), and the never-win
// lines, those cons already pinned included.
func Plan(estimates []LineEstimate, cons Constraints, m Machine, planner string, budget int) (*Result, BnBStats, []PrunedLine, error) {
	var stats BnBStats
	pruned := NeverWin(estimates, m)
	pinned := Constraints{HostOnly: make(map[int]string, len(cons.HostOnly)+len(pruned))}
	maps.Copy(pinned.HostOnly, cons.HostOnly)
	for _, pl := range pruned {
		if _, ok := pinned.HostOnly[pl.Line]; !ok {
			pinned.HostOnly[pl.Line] = pl.Reason
		}
	}
	var res *Result
	switch planner {
	case "", PlannerBnB:
		res = BnBBudget(estimates, pinned, m, budget, &stats)
	case PlannerAlgorithm1:
		res = Algorithm1(estimates, pinned, m)
	case PlannerAlgorithm1Literal:
		res = Algorithm1Literal(estimates, pinned, m)
	default:
		return nil, stats, nil, fmt.Errorf("unknown planner %q (choices: %s)", planner, PlannerChoices)
	}
	res.Provenance = BuildProvenance(res, pinned, pruned, m)
	return res, stats, pruned, nil
}

// ByLine indexes the estimates.
func (r *Result) ByLine() map[int]*LineEstimate {
	idx := make(map[int]*LineEstimate, len(r.Estimates))
	for i := range r.Estimates {
		idx[r.Estimates[i].Line] = &r.Estimates[i]
	}
	return idx
}

// deltaOnCSD is the projected change in total time from assigning line e
// to the CSD. These are lines 4 and 6 of the paper's Algorithm 1: every
// offloaded line charges its D_out return transfer, and the refund of the
// D_in shipment is available only up to the output volume the offload
// chain has actually produced (refundBudget) — an all-host run pays no
// transfer for host-resident inputs, so there is nothing to save beyond
// canceling previously charged returns. The budget caps multi-consumer
// over-refunds conservatively, matching the paper's observation that
// conservative estimates "at least make no harm" (§V).
//
// The second return value is the refund consumed, which the caller
// deducts from the budget.
func deltaOnCSD(e *LineEstimate, refundBudget float64, inputNearCSD bool, m *Machine) (float64, float64) {
	d := e.DevTotal() + e.QueueOverhead(m) - e.HostTotal() + m.xfer(e.DOut)
	if inputNearCSD {
		refund := e.DIn
		if refund > refundBudget {
			refund = refundBudget
		}
		d -= m.xfer(refund)
		return d, refund
	}
	d += m.xfer(e.DIn)
	return d, 0
}

// chainAbandonSlack is the cumulative-delta margin (in seconds) above the
// best prefix at which Algorithm1 stops extending a tentative chain. The
// line-local component, e.HostTotal(), lets the chain ride out one
// expensive line whose refund arrives with the next consumer; the
// constant adds absolute slack so that near-zero-cost lines (scalar
// updates whose HostTotal is microseconds) don't sever a chain over
// queue-overhead noise. One second is far above any single line's
// overhead at the simulated rates and far below the point where extending
// a doomed chain could flip a commit decision: the chain commits only its
// best prefix, so extra exploration can only find a better prefix, never
// a worse one. The value is pinned by TestChainSlackRidesOutCheapLines.
const chainAbandonSlack = 1.0

// Algorithm1 is the paper's greedy CSD code assignment (§III-B), with the
// chain-commit refinement its prose demands. The pseudocode's per-line
// delta charges every offloaded line's D_out return transfer, which the
// *next* line refunds (its -D_in term) if it joins P_csd too — so a
// pipeline's first line (a scan whose output is as large as its input)
// never looks profitable in isolation, even when the pipeline as a whole
// is. §III-B's text says the algorithm "records the assignment that
// yields the shortest execution time" as it walks the program: this
// implementation accumulates a tentative chain of consecutive lines and
// commits the chain prefix whose cumulative delta is the most negative —
// exactly the shortest-time assignment over the scan. Algorithm1Literal
// keeps the unrefined pseudocode for the planner ablation.
//
// Lines pinned by cons are never offloaded: a pinned line terminates any
// tentative chain (control must return to the host there regardless).
func Algorithm1(estimates []LineEstimate, cons Constraints, m Machine) *Result {
	var tHost float64
	for i := range estimates {
		tHost += estimates[i].HostTotal()
	}
	tCSD := tHost
	part := codegen.NewPartition()

	i := 0
	for i < len(estimates) {
		if _, pinned := cons.Pinned(estimates[i].Line); pinned {
			i++
			continue
		}
		// Open a tentative chain at line i and extend it while tracking
		// the best (lowest cumulative delta) prefix. The refund budget is
		// the output volume produced so far within the chain: consuming
		// lines can cancel previously charged returns, nothing more.
		chainDelta := 0.0
		bestDelta := 0.0
		bestEnd := -1 // inclusive index of the best prefix end
		budget := 0.0
		j := i
		for ; j < len(estimates); j++ {
			e := &estimates[j]
			if _, pinned := cons.Pinned(e.Line); pinned {
				break // the chain cannot extend through a host-pinned line
			}
			// Within a chain the predecessor is tentatively on the CSD;
			// at the chain head the input is near the CSD only for the
			// very first program line (raw storage) or when the committed
			// predecessor is on the CSD.
			inputNear := true
			if j == i {
				inputNear = j == 0 || part.OnCSD(estimates[j-1].Line)
			}
			d, used := deltaOnCSD(e, budget, inputNear, &m)
			budget -= used
			budget += e.DOut
			chainDelta += d
			if chainDelta < bestDelta {
				bestDelta = chainDelta
				bestEnd = j
			}
			// A chain that has drifted far above its best prefix will not
			// recover within Equation 1's linear accounting; stop extending.
			if chainDelta > bestDelta+e.HostTotal()+chainAbandonSlack {
				break
			}
		}
		if bestEnd >= 0 && tCSD+bestDelta < tCSD && tCSD <= tHost {
			for k := i; k <= bestEnd; k++ {
				part.CSDLines[estimates[k].Line] = true
			}
			tCSD += bestDelta
			i = bestEnd + 1
			continue
		}
		i++
	}
	return &Result{Partition: part, Estimates: estimates, THost: tHost, TCSD: tCSD, Planner: PlannerAlgorithm1}
}

// Algorithm1Literal is the unrefined pseudocode of §III-B: each line must
// lower the projected total by itself at the moment it is considered.
// Kept for the planner ablation bench. Lines pinned by cons are skipped.
func Algorithm1Literal(estimates []LineEstimate, cons Constraints, m Machine) *Result {
	var tHost float64
	for i := range estimates {
		tHost += estimates[i].HostTotal()
	}
	tCSD := tHost
	part := codegen.NewPartition()
	budget := 0.0
	for i := range estimates {
		e := &estimates[i]
		if _, pinned := cons.Pinned(e.Line); pinned {
			continue
		}
		inputNear := i == 0 || part.OnCSD(estimates[i-1].Line)
		d, used := deltaOnCSD(e, budget, inputNear, &m)
		t := tCSD + d
		if t < tCSD && tCSD <= tHost {
			part.CSDLines[e.Line] = true
			tCSD = t
			budget -= used
			budget += e.DOut
		}
	}
	return &Result{Partition: part, Estimates: estimates, THost: tHost, TCSD: tCSD, Planner: PlannerAlgorithm1Literal}
}

// PlacementEval is EvaluatePlacement's projection: the total time plus
// the residency traffic the placement induces, broken out so the billing
// model can be cross-checked against the executor's measured transfer
// accounting.
type PlacementEval struct {
	Time float64
	// CrossBytes is the named-variable traffic that crosses the host-CSD
	// link because a line consumes a variable homed on the other side.
	CrossBytes float64
	// Crossings counts the individual variable moves behind CrossBytes.
	Crossings int
}

// EvaluatePlacement projects the total execution time of an arbitrary
// placement by walking the program in line order with a variable
// residency map, mirroring what the executor will actually bill: a line
// runs at its unit's cost, and any variable it consumes that lives on the
// other side of the link is transferred (and rehomed) first. Equation 1's
// quantities are all here — this is the equation evaluated over a whole
// placement rather than one line.
func EvaluatePlacement(estimates []LineEstimate, part codegen.Partition, m Machine) PlacementEval {
	w := walk{m: m, home: map[string]bool{}}
	var ev PlacementEval
	for i := range estimates {
		e := &estimates[i]
		ev.Time = w.step(ev.Time, e, part.OnCSD(e.Line))
	}
	ev.CrossBytes, ev.Crossings = w.crossBytes, w.crossings
	return ev
}

// walk is the residency-billing walk behind EvaluatePlacement, which
// runs it once over a whole placement, and branch-and-bound, which
// extends it one line at a time along each tree path and rewinds it on
// backtrack.
type walk struct {
	m    Machine
	home map[string]bool // true = device-resident
	// undo, when non-nil, logs every home change so rewind can restore
	// an earlier state. Its capacity must cover the longest path walked.
	undo []homeChange
	// crossBytes and crossings total the variable moves billed so far.
	crossBytes float64
	crossings  int
}

// homeChange is one residency-map mutation, logged so rewind can
// restore the walk state exactly.
type homeChange struct {
	name    string
	prevDev bool
	existed bool
}

// step adds line e, run on the given side, to cost and returns the sum.
// The accumulation order — each crossing read, then the unit cost — is
// the walk's definition: every caller gets the same total, bit for bit.
func (w *walk) step(cost float64, e *LineEstimate, onCSD bool) float64 {
	for _, r := range e.Reads {
		dev, known := w.home[r.Name]
		if known && dev != onCSD {
			cost += w.m.xfer(r.Bytes)
			w.crossBytes += r.Bytes
			w.crossings++
			w.rehome(r.Name, dev, true, onCSD)
		}
	}
	for _, wr := range e.Writes {
		dev, known := w.home[wr.Name]
		w.rehome(wr.Name, dev, known, onCSD)
	}
	if onCSD {
		cost += e.DevTotal() + e.QueueOverhead(&w.m)
	} else {
		cost += e.HostTotal()
	}
	return cost
}

// rehome moves name to the given side, logging its previous home. The
// log grows by reslicing within its capacity, not by append: escape
// analysis does not tell a struct's fields apart, so storing an append's
// result into w would move home to the heap on every EvaluatePlacement.
func (w *walk) rehome(name string, prevDev, existed, onCSD bool) {
	if w.undo != nil {
		n := len(w.undo)
		w.undo = w.undo[:n+1]
		w.undo[n] = homeChange{name, prevDev, existed}
	}
	w.home[name] = onCSD
}

// rewind rolls the residency map back to an earlier undo-log length.
func (w *walk) rewind(mark int) {
	for i := len(w.undo) - 1; i >= mark; i-- {
		ch := w.undo[i]
		if ch.existed {
			w.home[ch.name] = ch.prevDev
		} else {
			delete(w.home, ch.name)
		}
	}
	w.undo = w.undo[:mark]
}

// MaxOptimalLines bounds Optimal's exhaustive enumeration: 2^16
// placements is the largest space the oracle scans at test speed.
const MaxOptimalLines = 16

// Optimal is the brute-force reference for the runtime's planner
// (BnBBudget): it evaluates every placement of the unpinned lines under
// EvaluatePlacement in ascending mask order (bit i puts the i-th free
// line on the CSD) and keeps a placement only if it is strictly cheaper,
// so exact ties resolve to the lowest mask and the all-host plan
// survives unless an offload strictly beats it. The plan tests and the
// planner study compare BnBBudget against it; the runtime never calls it.
//
// Lines pinned by cons are excluded from the enumeration, so no
// candidate partition ever places them on the CSD. Optimal panics past
// MaxOptimalLines free lines: an oracle must never answer with a
// different algorithm.
func Optimal(estimates []LineEstimate, cons Constraints, m Machine) *Result {
	var free []int // indices into estimates
	for i := range estimates {
		if _, pinned := cons.Pinned(estimates[i].Line); !pinned {
			free = append(free, i)
		}
	}
	n := len(free)
	if n > MaxOptimalLines {
		panic(fmt.Sprintf("plan: Optimal over %d free lines, past MaxOptimalLines (%d)", n, MaxOptimalLines))
	}
	// Each mask is priced by the residency walk over a reused map and
	// on-CSD vector, summed in EvaluatePlacement's order, so every total
	// is bit-identical to EvaluatePlacement's; only the winner becomes a
	// partition.
	w := walk{m: m, home: map[string]bool{}}
	onCSD := make([]bool, len(estimates))
	price := func(mask int) float64 {
		for i, idx := range free {
			onCSD[idx] = mask&(1<<i) != 0
		}
		clear(w.home)
		t := 0.0
		for i := range estimates {
			t = w.step(t, &estimates[i], onCSD[i])
		}
		return t
	}
	tHost := price(0)
	bestMask, bestT := 0, tHost
	for mask := 1; mask < 1<<n; mask++ {
		if t := price(mask); t < bestT {
			bestMask, bestT = mask, t
		}
	}
	part := codegen.NewPartition()
	for i, idx := range free {
		if bestMask&(1<<i) != 0 {
			part.CSDLines[estimates[idx].Line] = true
		}
	}
	return &Result{Partition: part, Estimates: estimates, THost: tHost, TCSD: bestT, Planner: PlannerOptimal}
}

// Describe renders the plan for logs and examples.
func (r *Result) Describe() string {
	planner := r.Planner
	if planner == "" {
		planner = "unknown"
	}
	return fmt.Sprintf("plan[%s]: offload lines %v (projected %.3fs vs all-host %.3fs)",
		planner, r.Partition.Lines(), r.TCSD, r.THost)
}
