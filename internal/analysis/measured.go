// The static-vs-measured cross-check (AV009): the profiler fits
// per-line curves (internal/fit) and extrapolates execution counts to
// full scale; the abstract interpretation proves execution-count
// intervals from loop structure alone. A fitted count outside the
// proved interval means the extrapolation contradicts program
// structure — the planner is about to feed Equation 1 a number the
// program cannot produce.
package analysis

import (
	"fmt"
	"math"
)

// Measured is one line's profiler-fitted execution count at planning
// scale. Callers adapt profile predictions into this form (core adapts
// between the two, as it adapts HostPinned into plan.Constraints), so
// the check reads nothing of the profiler but the counts.
type Measured struct {
	Line  int
	Execs float64
}

// measuredTolerance absorbs fit residue: the fitted curve may land
// slightly off an integral count without contradicting the program.
// The bound check stretches the static interval by this fraction plus
// one absolute count before calling a contradiction.
const measuredTolerance = 0.05

// CheckMeasured cross-checks fitted execution counts against the
// static bounds and returns AV009 diagnostics for provable
// contradictions. Lines without static bounds (not in the program) are
// reported too — a fitted count for a nonexistent line is the same
// contradiction in a louder form.
func (r *Report) CheckMeasured(ms []Measured) []Diagnostic {
	var diags []Diagnostic
	if r.absint == nil {
		return diags
	}
	for _, m := range ms {
		f, ok := r.byLine[m.Line]
		if !ok {
			diags = append(diags, Diagnostic{
				Line: m.Line, Code: CodeBoundMismatch, Severity: SevWarning,
				Msg: fmt.Sprintf("profile fits %.4g executions for a line the program does not contain", m.Execs),
			})
			continue
		}
		// Only work-bearing lines carry per-line profiles; control
		// headers are sampled differently and are not cross-checked.
		if f.Kind != KindAssign && f.Kind != KindExpr {
			continue
		}
		iv, ok := r.absint.execBounds[m.Line]
		if !ok {
			continue
		}
		lo := iv.Lo*(1-measuredTolerance) - 1
		hi := iv.Hi*(1+measuredTolerance) + 1
		if math.IsInf(iv.Hi, 1) {
			hi = math.Inf(1)
		}
		if m.Execs < lo || m.Execs > hi {
			diags = append(diags, Diagnostic{
				Line: m.Line, Code: CodeBoundMismatch, Severity: SevWarning,
				Msg: fmt.Sprintf("static bound contradicts measured scale: the program executes this line %s times, but the fitted profile predicts %.4g", iv, m.Execs),
			})
		}
	}
	sortDiagnostics(diags)
	return diags
}
