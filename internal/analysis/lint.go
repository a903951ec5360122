// The lint rule catalogue: the diagnostics `activego vet` surfaces.
// Every rule rides on facts the dependence analysis already computed —
// the linter is a view over the Report, not a second analysis.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"activego/internal/lang/builtins"
	"activego/internal/lang/parser"
	"activego/internal/plan"
)

// Severity ranks a diagnostic.
type Severity int

// Severities.
const (
	SevWarning Severity = iota
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diagnostic codes. AV0xx are program lints; AV1xx are partition
// verification findings.
const (
	CodeUndefined       = "AV001" // use with no reaching definition
	CodeUnknownFunc     = "AV002" // call of an unregistered builtin
	CodeArity           = "AV003" // builtin called with the wrong argument count
	CodeDeadStore       = "AV004" // assignment never read and not program output
	CodeLoopInvariant   = "AV005" // loop-body line computable before the loop
	CodeUnreachable     = "AV006" // statement after break
	CodeStrayBreak      = "AV007" // break outside any loop
	CodeOptimalFallback = "AV008" // more offloadable lines than the exact planner enumerates
	CodeBoundMismatch   = "AV009" // static execution-count bound contradicts the fitted profile
	CodeUnboundedLoop   = "AV010" // statically-infinite or unbounded loop
	CodeNeverWin        = "AV011" // offload's provable minimum cost exceeds the host cost
	CodeDrift           = "AV012" // observed per-line cost diverges persistently from the fitted model

	CodeIllegalOffload = "AV101" // partition offloads a host-only line
	CodeUnknownLine    = "AV102" // partition offloads a nonexistent line
	CodePingPong       = "AV103" // variable residency ping-pong
)

// Diagnostic is one finding, machine-readable as (line, code, message).
type Diagnostic struct {
	Line     int // 1-based source line; 0 for program-wide findings
	Code     string
	Severity Severity
	Msg      string
}

// Format renders the diagnostic in the canonical `file:line: code:
// message` shape tools and golden files consume.
func (d Diagnostic) Format(file string) string {
	return fmt.Sprintf("%s:%d: %s: %s", file, d.Line, d.Code, d.Msg)
}

// Lint runs the full rule catalogue and returns findings ordered by
// line, then code.
func (r *Report) Lint() []Diagnostic {
	var diags []Diagnostic

	// AV001 — undefined variable.
	for ln, vars := range r.undefined {
		for _, v := range vars {
			diags = append(diags, Diagnostic{
				Line: ln, Code: CodeUndefined, Severity: SevError,
				Msg: fmt.Sprintf("undefined variable %q: no definition reaches this use", v),
			})
		}
	}

	// AV002/AV003 — unknown builtin, arity mismatch.
	for _, f := range r.Lines {
		for _, c := range f.Calls {
			b, ok := builtins.Lookup(c.Func)
			if !ok {
				diags = append(diags, Diagnostic{
					Line: f.Line, Code: CodeUnknownFunc, Severity: SevError,
					Msg: fmt.Sprintf("unknown builtin %q", c.Func),
				})
				continue
			}
			if b.Arity >= 0 && c.Args != b.Arity {
				diags = append(diags, Diagnostic{
					Line: f.Line, Code: CodeArity, Severity: SevError,
					Msg: fmt.Sprintf("%s takes %d args, got %d", c.Func, b.Arity, c.Args),
				})
			} else if b.Arity < 0 && c.Args < b.MinArity {
				diags = append(diags, Diagnostic{
					Line: f.Line, Code: CodeArity, Severity: SevError,
					Msg: fmt.Sprintf("%s takes at least %d args, got %d", c.Func, b.MinArity, c.Args),
				})
			}
		}
	}

	// AV004 — dead store.
	for _, d := range r.deadDefs {
		diags = append(diags, Diagnostic{
			Line: d.line, Code: CodeDeadStore, Severity: SevWarning,
			Msg: fmt.Sprintf("dead store: %q is assigned here but never read and overwritten before program end", d.name),
		})
	}

	// AV005 — loop-invariant line inside for.
	for _, f := range r.Lines {
		if r.loopInvariant(f) {
			diags = append(diags, Diagnostic{
				Line: f.Line, Code: CodeLoopInvariant, Severity: SevWarning,
				Msg: fmt.Sprintf("loop-invariant: every input of %q is defined outside the loop; hoist it above the for", strings.Join(f.Defs, ", ")),
			})
		}
	}

	// AV006 — unreachable after break.
	for _, f := range r.Lines {
		if f.Unreachable {
			diags = append(diags, Diagnostic{
				Line: f.Line, Code: CodeUnreachable, Severity: SevWarning,
				Msg: "unreachable: this statement follows a break",
			})
		}
	}

	// AV007 — break outside any loop.
	for _, ln := range r.breakOutsideLoop {
		diags = append(diags, Diagnostic{
			Line: ln, Code: CodeStrayBreak, Severity: SevError,
			Msg: "break outside any loop",
		})
	}

	// AV010 — statically-infinite or unbounded loop (from the interval
	// abstract interpretation).
	if r.absint != nil {
		for _, f := range r.Lines {
			if f.Kind != KindFor {
				continue
			}
			switch {
			case r.absint.stepZero[f.Line]:
				diags = append(diags, Diagnostic{
					Line: f.Line, Code: CodeUnboundedLoop, Severity: SevError,
					Msg: "range step is provably zero: the loop cannot advance and the program always fails at run time",
				})
			case r.absint.unbounded[f.Line]:
				diags = append(diags, Diagnostic{
					Line: f.Line, Code: CodeUnboundedLoop, Severity: SevWarning,
					Msg: "loop trip count is statically unbounded: the bound derives from neither literals nor data sizes, so no per-line cost bound exists under it",
				})
			}
		}
	}

	// AV008 — the offload candidates' dependence structure could exhaust
	// the branch-and-bound planner's node budget. The planner searches
	// each variable-sharing component independently (DESIGN.md §16), so
	// many small components plan exactly no matter how many lines the
	// program has; only a component wider than the budget's guarantee
	// can force the greedy Algorithm 1 fallback.
	if worst, biggest := r.searchSize(); worst > plan.DefaultBnBNodeBudget {
		diags = append(diags, Diagnostic{
			Line: 0, Code: CodeOptimalFallback, Severity: SevWarning,
			Msg: fmt.Sprintf("%d offloadable lines share one dependence component: the exact planner's worst-case search (%d nodes) exceeds its %d-node budget, so planning may fall back to the greedy Algorithm 1 (the plan.optimal.fallback counter records a genuine fallback at run time)", biggest, worst, plan.DefaultBnBNodeBudget),
		})
	}

	sortDiagnostics(diags)
	return diags
}

// searchSize is plan.SearchSize over the static def/use sets: one
// pseudo-estimate per line that reads its uses and writes its defs, with
// every line the planner may not offload — pinned by legality, or
// neither an assignment nor an expression — passed as host-only. The
// def/use sets over-approximate the variable flows the planner sees, so
// these components are never finer than the planner's.
func (r *Report) searchSize() (worst, biggest int) {
	estimates := make([]plan.LineEstimate, len(r.Lines))
	cons := plan.Constraints{HostOnly: r.HostPinned()}
	for i, f := range r.Lines {
		e := plan.LineEstimate{Line: f.Line}
		for _, v := range f.Uses {
			e.Reads = append(e.Reads, plan.VarFlow{Name: v})
		}
		for _, v := range f.Defs {
			e.Writes = append(e.Writes, plan.VarFlow{Name: v})
		}
		estimates[i] = e
		if f.Kind != KindAssign && f.Kind != KindExpr {
			cons.HostOnly[f.Line] = "not an assignment or expression"
		}
	}
	return plan.SearchSize(estimates, cons)
}

// loopInvariant reports whether f is an assignment inside a `for` whose
// inputs are all defined outside the innermost loop — i.e. the line
// computes the same value every iteration and could be hoisted. Lines
// with host-only effects are exempt (hoisting would change observable
// behavior), as are loop headers themselves.
func (r *Report) loopInvariant(f *LineFact) bool {
	if f.Kind != KindAssign || f.LoopDepth == 0 || f.Unreachable {
		return false
	}
	if f.Effect >= builtins.EffectHostOnly {
		return false
	}
	loop := f.innermostLoop(r)
	if loop == 0 {
		return false
	}
	defs := r.useDefs[f.Line]
	for _, u := range f.Uses {
		reaching := defs[u]
		if len(reaching) == 0 {
			return false // undefined: its own diagnostic
		}
		for _, dl := range reaching {
			if r.insideLoop(dl, loop) {
				return false
			}
		}
	}
	return true
}

// innermostLoop returns the line of the innermost enclosing for header.
func (f *LineFact) innermostLoop(r *Report) int {
	for i := len(f.Parents) - 1; i >= 0; i-- {
		if pf, ok := r.byLine[f.Parents[i]]; ok && pf.Kind == KindFor {
			return pf.Line
		}
	}
	return 0
}

// insideLoop reports whether line is the loop header itself or nested
// anywhere under it.
func (r *Report) insideLoop(line, loop int) bool {
	if line == loop {
		return true
	}
	f, ok := r.byLine[line]
	if !ok {
		return false
	}
	for _, p := range f.Parents {
		if p == loop {
			return true
		}
	}
	return false
}

// Sort orders diagnostics by line, then code, then message — the
// canonical order every lint surface emits. Exposed for callers (core's
// Vet) that merge diagnostic streams from multiple passes.
func Sort(diags []Diagnostic) { sortDiagnostics(diags) }

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Code != diags[j].Code {
			return diags[i].Code < diags[j].Code
		}
		return diags[i].Msg < diags[j].Msg
	})
}

// LintSource parses and lints src in one step — the entry point of
// `activego vet`. A parse failure is returned as the error; diagnostics
// are the lint findings.
func LintSource(src string) ([]Diagnostic, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	rep, err := Analyze(prog)
	if err != nil {
		return nil, err
	}
	return rep.Lint(), nil
}

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}
