// Offload legality and partition verification: the checks that turn the
// dependence analysis into a gate the planner and executor must pass.
package analysis

import (
	"fmt"
	"sort"

	"activego/internal/codegen"
	"activego/internal/lang/builtins"
)

// pingPongThreshold is the number of link crossings of one variable's
// def→use chain above which Verify warns about residency ping-pong. Two
// crossings (down with the offload chain, back with the result) are the
// normal shape of a profitable offload; three or more mean the partition
// bounces the variable across the link.
const pingPongThreshold = 3

// HostPinned returns every line that must not run on the CSD, mapped to
// a human-readable reason. This is the mask the planners apply before
// their greedy walk.
func (r *Report) HostPinned() map[int]string {
	out := map[int]string{}
	for _, f := range r.Lines {
		if f.Effect < builtins.EffectHostOnly {
			continue
		}
		name := ""
		for _, c := range f.Calls {
			eff, known := builtins.EffectOf(c.Func)
			if !known {
				name = fmt.Sprintf("unknown builtin %q", c.Func)
				break
			}
			if eff == builtins.EffectHostOnly {
				name = fmt.Sprintf("host-only builtin %q", c.Func)
				break
			}
		}
		if name == "" {
			name = "a host-only operation"
		}
		out[f.Line] = name
	}
	return out
}

// Verify checks a partition against the analysis: illegal offloads
// (host-only effects on CSD lines), offloads of unknown lines, uses of
// undefined names anywhere in the program, and host↔CSD residency
// ping-pong along the data-dependence graph. Errors make the partition
// unrunnable; warnings are advisory.
func (r *Report) Verify(part codegen.Partition) []Diagnostic {
	var diags []Diagnostic

	pinned := r.HostPinned()
	for _, ln := range part.Lines() {
		if reason, bad := pinned[ln]; bad {
			diags = append(diags, Diagnostic{
				Line: ln, Code: CodeIllegalOffload, Severity: SevError,
				Msg: fmt.Sprintf("line %d may not run on the CSD: it calls %s", ln, reason),
			})
		}
		if _, ok := r.byLine[ln]; !ok {
			diags = append(diags, Diagnostic{
				Line: ln, Code: CodeUnknownLine, Severity: SevError,
				Msg: fmt.Sprintf("partition offloads line %d, which is not a program line", ln),
			})
		}
	}

	// Undefined names are illegal regardless of placement: generated
	// code for either side would read garbage.
	lines := make([]int, 0, len(r.undefined))
	for ln := range r.undefined {
		lines = append(lines, ln)
	}
	sort.Ints(lines)
	for _, ln := range lines {
		for _, v := range r.undefined[ln] {
			diags = append(diags, Diagnostic{
				Line: ln, Code: CodeUndefined, Severity: SevError,
				Msg: fmt.Sprintf("line %d uses %q before any definition reaches it", ln, v),
			})
		}
	}

	// Residency ping-pong: walk each variable's data-dependence edges
	// and count how many cross the partition boundary.
	crossings := map[string]int{}
	for _, e := range r.Deps {
		if e.Kind != EdgeData {
			continue
		}
		if part.OnCSD(e.From) != part.OnCSD(e.To) {
			crossings[e.Var]++
		}
	}
	vars := make([]string, 0, len(crossings))
	for v := range crossings {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		if n := crossings[v]; n >= pingPongThreshold {
			diags = append(diags, Diagnostic{
				Line: 0, Code: CodePingPong, Severity: SevWarning,
				Msg: fmt.Sprintf("variable %q crosses the host-CSD link on %d def-use edges under this partition (residency ping-pong)", v, n),
			})
		}
	}
	return diags
}

// VerifyError distills Verify into a single error: nil when no
// error-severity diagnostic fired, otherwise an error naming the first
// offending line.
func (r *Report) VerifyError(part codegen.Partition) error {
	for _, d := range r.Verify(part) {
		if d.Severity == SevError {
			return fmt.Errorf("analysis: %s", d.Msg)
		}
	}
	return nil
}
