// The abstract-interpretation layer: interval value-range analysis over
// scalars and loop bounds, yielding static per-line execution-count
// bounds. The planners consume the bounds two ways: AV010 reports loops
// whose trip count is statically infinite or unbounded, and
// CheckMeasured (AV009) cross-checks the profiler's fitted
// execution-count curves against the static bounds — a fitted curve
// outside the provable range means the sampling extrapolation cannot be
// trusted for that line.
//
// The domain tracks, per scalar variable, an Interval plus a
// finiteness bit: data-size builtins (vlen, nrows, ncols, trows, nnz)
// return values that are statically unbounded yet guaranteed finite at
// run time, and a loop bounded by them is a normal data-dependent loop,
// not an AV010 finding. Only a bound with no such guarantee — an
// arbitrary computed scalar — is flagged as unbounded.
package analysis

import (
	"math"

	"activego/internal/lang/ast"
)

// absVal is one scalar's abstract value.
type absVal struct {
	iv Interval
	// finite marks values guaranteed finite at run time even when the
	// interval is unbounded (data sizes and arithmetic over them).
	finite bool
}

func topVal() absVal { return absVal{iv: Top()} }

func (a absVal) join(b absVal) absVal {
	return absVal{iv: a.iv.Join(b.iv), finite: a.finite && b.finite}
}

// sizeBuiltins return data-structure extents: nonnegative, finite at
// run time, statically unbounded.
var sizeBuiltins = map[string]bool{
	"vlen": true, "nrows": true, "ncols": true, "trows": true, "nnz": true,
}

// absEnv maps scalar variables to abstract values.
type absEnv map[string]absVal

func (e absEnv) clone() absEnv {
	out := make(absEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// joinInto joins o into e (pointwise; variables known on only one side
// degrade to that side's value joined with top-finiteness preserved).
func (e absEnv) joinInto(o absEnv) {
	for k, v := range o {
		if cur, ok := e[k]; ok {
			e[k] = cur.join(v)
		} else {
			e[k] = v.join(topVal())
		}
	}
	for k := range e {
		if _, ok := o[k]; !ok {
			e[k] = e[k].join(topVal())
		}
	}
}

func (e absEnv) equal(o absEnv) bool {
	if len(e) != len(o) {
		return false
	}
	for k, v := range e {
		w, ok := o[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

// widenFrom widens e's entries against their previous values.
func (e absEnv) widenFrom(prev absEnv) {
	for k, v := range e {
		if p, ok := prev[k]; ok {
			e[k] = absVal{iv: v.iv.Widen(p.iv), finite: v.finite && p.finite}
		}
	}
}

// absState is the analysis result attached to a Report.
type absState struct {
	execBounds map[int]Interval // line → static execution-count interval
	tripBounds map[int]Interval // for-header line → trip-count interval
	stepZero   map[int]bool     // for-header with a provably zero step
	unbounded  map[int]bool     // for-header with an unbounded, unguaranteed bound
}

// maxAbsIters caps the loop-body fixpoint. Widening pushes every moved
// bound to ±Inf after the first re-iteration, so three passes always
// stabilize; the cap is a backstop, not a tuning knob.
const maxAbsIters = 4

// runAbsint computes the interval analysis for prog. It never fails:
// unknown constructs degrade to Top.
func runAbsint(prog *ast.Program) *absState {
	st := &absState{
		execBounds: map[int]Interval{},
		tripBounds: map[int]Interval{},
		stepZero:   map[int]bool{},
		unbounded:  map[int]bool{},
	}
	env := absEnv{}
	st.walk(prog.Stmts, env, Point(1), true)
	return st
}

// walk abstractly executes stmts under env. exec is the interval of how
// many times this block runs per program execution; record toggles
// fact-recording (the loop fixpoint re-walks bodies with recording off,
// then records once on the stabilized environment).
func (st *absState) walk(stmts []ast.Stmt, env absEnv, exec Interval, record bool) {
	reachable := true
	for _, s := range stmts {
		lineExec := exec
		if !reachable {
			lineExec = Point(0)
		}
		if record {
			if cur, ok := st.execBounds[s.Line()]; ok {
				st.execBounds[s.Line()] = cur.Join(lineExec)
			} else {
				st.execBounds[s.Line()] = lineExec
			}
		}
		switch stmt := s.(type) {
		case *ast.Assign:
			v := st.eval(stmt.Value, env)
			if stmt.AugOp != "" {
				v = applyBinOp(stmt.AugOp, envLookup(env, stmt.Name), v)
			}
			env[stmt.Name] = v

		case *ast.For:
			trips, stepZero, unbounded := st.tripCount(stmt, env)
			if hasOwnBreak(stmt.Body) {
				// A break can only shorten the loop: the upper bound
				// stands, the lower collapses.
				trips.Lo = 0
			}
			if record {
				st.tripBounds[stmt.Ln] = trips
				st.stepZero[stmt.Ln] = stepZero
				st.unbounded[stmt.Ln] = unbounded
			}
			bodyExec := lineExec.Mul(trips).ClampMin(0)

			// Loop variable: bounded by the range's extremes.
			lo, hi, _ := st.rangeIvs(stmt, env)
			loopVar := absVal{iv: lo.iv.Join(hi.iv), finite: true}

			// Fixpoint over the body with widening, recording off.
			iter := env.clone()
			iter[stmt.Var] = loopVar
			for i := 0; i < maxAbsIters; i++ {
				next := iter.clone()
				st.walk(stmt.Body, next, bodyExec, false)
				next[stmt.Var] = loopVar
				next.joinInto(iter)
				if i > 0 {
					next.widenFrom(iter)
				}
				if next.equal(iter) {
					break
				}
				iter = next
			}
			// One recording pass on the stabilized environment.
			st.walk(stmt.Body, iter.clone(), bodyExec, record)

			// After the loop: the body may have run zero times, so the
			// exit state joins the entry state.
			iter.joinInto(env)
			for k, v := range iter {
				env[k] = v
			}

		case *ast.If:
			thenEnv := env.clone()
			elseEnv := env.clone()
			branchExec := lineExec.Mul(Range(0, 1))
			st.walk(stmt.Then, thenEnv, branchExec, record)
			st.walk(stmt.Else, elseEnv, branchExec, record)
			thenEnv.joinInto(elseEnv)
			for k, v := range thenEnv {
				env[k] = v
			}

		case *ast.Break:
			reachable = false
		}
	}
}

// hasOwnBreak reports whether a statement list contains a break
// belonging to the enclosing loop (recursing into conditionals but not
// into nested loops, whose breaks terminate only themselves).
func hasOwnBreak(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		switch stmt := s.(type) {
		case *ast.Break:
			return true
		case *ast.If:
			if hasOwnBreak(stmt.Then) || hasOwnBreak(stmt.Else) {
				return true
			}
		}
	}
	return false
}

// envLookup returns the variable's abstract value, Top if unknown.
func envLookup(env absEnv, name string) absVal {
	if v, ok := env[name]; ok {
		return v
	}
	return topVal()
}

// rangeIvs evaluates the loop's range arguments to (start, stop, step)
// abstract values under the interpreter's argument conventions.
func (st *absState) rangeIvs(f *ast.For, env absEnv) (start, stop, step absVal) {
	switch len(f.Range) {
	case 1:
		return absVal{iv: Point(0), finite: true}, st.eval(f.Range[0], env), absVal{iv: Point(1), finite: true}
	case 2:
		return st.eval(f.Range[0], env), st.eval(f.Range[1], env), absVal{iv: Point(1), finite: true}
	default:
		return st.eval(f.Range[0], env), st.eval(f.Range[1], env), st.eval(f.Range[2], env)
	}
}

// tripCount bounds the loop's iteration count and classifies the
// pathological cases: a provably-zero step (guaranteed runtime error)
// and an unbounded bound with no finiteness guarantee.
func (st *absState) tripCount(f *ast.For, env absEnv) (trips Interval, stepZero, unbounded bool) {
	start, stop, step := st.rangeIvs(f, env)
	if step.iv.IsPoint() && step.iv.Lo == 0 {
		return Point(0), true, false
	}
	span := stop.iv.Sub(start.iv)
	switch {
	case step.iv.Lo > 0: // strictly ascending
		trips = tripsFor(span, step.iv)
	case step.iv.Hi < 0: // strictly descending
		trips = tripsFor(span.Neg(), step.iv.Neg())
	default:
		// Step sign unknown (or possibly zero): no bound.
		trips = Interval{0, math.Inf(1)}
	}
	guaranteed := start.finite && stop.finite && step.finite
	return trips, false, math.IsInf(trips.Hi, 1) && !guaranteed
}

// tripsFor computes ceil(span/step) clamped at zero, for positive step.
func tripsFor(span, step Interval) Interval {
	lo := math.Ceil(span.Lo / step.Hi)
	hi := math.Ceil(span.Hi / step.Lo)
	if math.IsNaN(lo) {
		lo = 0
	}
	if math.IsNaN(hi) {
		hi = math.Inf(1)
	}
	return Range(lo, hi).ClampMin(0)
}

// eval abstracts one expression to a scalar value. Non-scalar results
// (vectors, tables) and unknown constructs degrade to Top.
func (st *absState) eval(e ast.Expr, env absEnv) absVal {
	switch x := e.(type) {
	case ast.IntLit:
		return absVal{iv: Point(float64(x.Value)), finite: true}
	case *ast.IntLit:
		return absVal{iv: Point(float64(x.Value)), finite: true}
	case ast.FloatLit:
		return absVal{iv: Point(x.Value), finite: !math.IsInf(x.Value, 0)}
	case *ast.FloatLit:
		return absVal{iv: Point(x.Value), finite: !math.IsInf(x.Value, 0)}
	case ast.BoolLit:
		if x.Value {
			return absVal{iv: Point(1), finite: true}
		}
		return absVal{iv: Point(0), finite: true}
	case *ast.BoolLit:
		if x.Value {
			return absVal{iv: Point(1), finite: true}
		}
		return absVal{iv: Point(0), finite: true}
	case ast.Name:
		return envLookup(env, x.Ident)
	case *ast.Name:
		return envLookup(env, x.Ident)
	case *ast.UnaryOp:
		v := st.eval(x.X, env)
		switch x.Op {
		case "-":
			return absVal{iv: v.iv.Neg(), finite: v.finite}
		case "not":
			return absVal{iv: Range(0, 1), finite: true}
		}
		return topVal()
	case *ast.BinOp:
		return applyBinOp(x.Op, st.eval(x.Left, env), st.eval(x.Right, env))
	case *ast.Call:
		if sizeBuiltins[x.Func] {
			return absVal{iv: Interval{0, math.Inf(1)}, finite: true}
		}
		return topVal()
	}
	return topVal()
}

// applyBinOp abstracts one binary operator application.
func applyBinOp(op string, l, r absVal) absVal {
	both := l.finite && r.finite
	switch op {
	case "+":
		return absVal{iv: l.iv.Add(r.iv), finite: both}
	case "-":
		return absVal{iv: l.iv.Sub(r.iv), finite: both}
	case "*":
		return absVal{iv: l.iv.Mul(r.iv), finite: both}
	case "/":
		// A divisor interval touching zero can blow up to ±Inf, which
		// also forfeits the finiteness guarantee.
		return absVal{iv: l.iv.Div(r.iv), finite: both && !r.iv.Contains(0)}
	case "//":
		return absVal{iv: l.iv.Div(r.iv), finite: both && !r.iv.Contains(0)}
	case "%":
		// Result magnitude is bounded by the divisor's.
		m := math.Max(math.Abs(r.iv.Lo), math.Abs(r.iv.Hi))
		return absVal{iv: Range(-m, m), finite: both && !r.iv.Contains(0)}
	case "==", "!=", "<", "<=", ">", ">=", "and", "or":
		return absVal{iv: Range(0, 1), finite: true}
	case "**":
		if l.iv.IsPoint() && r.iv.IsPoint() {
			p := math.Pow(l.iv.Lo, r.iv.Lo)
			return absVal{iv: Point(p), finite: !math.IsInf(p, 0) && !math.IsNaN(p)}
		}
		if l.iv.Lo >= 0 && r.iv.Lo >= 0 {
			return absVal{iv: Interval{0, math.Inf(1)}, finite: both}
		}
		return topVal()
	}
	return topVal()
}
