// Package analysis is the static-analysis pass over mini-language
// programs: per-line def/use sets, reaching definitions over a real
// control-flow graph, a line-granular data+control dependence graph,
// effect-based offload legality, partition verification, and a lint rule
// catalogue.
//
// The paper's planner (§III-B) decides *where* a line runs purely from
// sampled dynamic estimates; nothing there asks whether a partition is
// even legal — a side-effecting line pinned to the host, a use before
// any def, control flow split across the link. This package closes that
// gap: the planners mask illegal lines before their greedy walk, the
// execution layer refuses partitions that fail Verify, and `activego
// vet` surfaces the same machinery as a linter.
//
// Everything operates at line granularity because one source line is the
// unit of offload (§III-B): a "node" in every graph here is a 1-based
// source line.
package analysis

import (
	"fmt"
	"sort"

	"activego/internal/lang/ast"
	"activego/internal/lang/builtins"
)

// StmtKind classifies the statement that owns a line.
type StmtKind int

// Statement kinds.
const (
	KindAssign StmtKind = iota
	KindExpr
	KindFor
	KindIf
	KindPass
	KindBreak
)

func (k StmtKind) String() string {
	switch k {
	case KindAssign:
		return "assign"
	case KindExpr:
		return "expr"
	case KindFor:
		return "for"
	case KindIf:
		return "if"
	case KindPass:
		return "pass"
	case KindBreak:
		return "break"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// CallSite is one builtin invocation on a line.
type CallSite struct {
	Func string
	Args int
}

// LineFact is everything the analysis knows about one source line.
type LineFact struct {
	Line  int
	Kind  StmtKind
	Defs  []string   // variables the line binds (sorted)
	Uses  []string   // variables the line consumes (sorted)
	Calls []CallSite // builtin invocations, outermost first

	// Effect is the strongest effect signature among the line's calls;
	// builtins.EffectHostOnly makes the line illegal to offload. A call
	// to an unknown builtin is treated as host-only (conservative: we
	// cannot prove it has no external effect).
	Effect builtins.Effect

	// LoopDepth is the number of enclosing `for` statements.
	LoopDepth int
	// Parents are the enclosing control headers (innermost last): the
	// line's control dependences under structured control flow.
	Parents []int

	// Unreachable marks a statement lexically after a `break` in the
	// same block.
	Unreachable bool

	stmt ast.Stmt
}

// EdgeKind distinguishes dependence edge flavors.
type EdgeKind int

// Dependence edge kinds.
const (
	// EdgeData is a def→use flow: From defines a variable that reaches a
	// use at To.
	EdgeData EdgeKind = iota
	// EdgeControl runs from a control header (for/if line) to a line
	// whose execution it governs.
	EdgeControl
)

func (k EdgeKind) String() string {
	if k == EdgeData {
		return "data"
	}
	return "control"
}

// DepEdge is one dependence-graph edge between source lines.
type DepEdge struct {
	From, To int
	Var      string // variable carrying a data dependence ("" for control)
	Kind     EdgeKind
}

// Report is the full static-analysis result for one program.
type Report struct {
	Prog  *ast.Program
	Lines []*LineFact // ascending by source line
	Deps  []DepEdge   // data + control dependence edges, sorted

	byLine map[int]*LineFact
	// reachingUses[line] = set of def lines whose definition of some
	// variable reaches a use of that variable at `line`.
	useDefs map[int]map[string][]int
	// liveAtExit[defKey] marks defs that survive to program end (the
	// final environment is the program's observable output).
	liveOut map[defKey]bool
	// deadDefs are defs that reach no use and do not survive to exit.
	deadDefs []defKey
	// undefined[line] = variables used at line with no reaching def.
	undefined map[int][]string
	// breakOutsideLoop lists `break` statements with no enclosing for.
	breakOutsideLoop []int
	// absint is the interval abstract-interpretation result: static
	// per-line execution-count bounds and loop trip-count bounds.
	absint *absState
}

type defKey struct {
	line int
	name string
}

// node is one CFG node (one statement / one source line).
type node struct {
	fact  *LineFact
	succs []*node

	// reaching-definition sets
	in, out map[defKey]bool
}

// Analyze runs the full static analysis over prog.
func Analyze(prog *ast.Program) (*Report, error) {
	if prog == nil {
		return nil, fmt.Errorf("analysis: nil program")
	}
	r := &Report{
		Prog:      prog,
		byLine:    map[int]*LineFact{},
		useDefs:   map[int]map[string][]int{},
		liveOut:   map[defKey]bool{},
		undefined: map[int][]string{},
	}
	b := &builder{report: r}
	entry, exits := b.buildBlock(prog.Stmts, nil, nil, true)
	// Synthetic exit node: the final environment is observable program
	// output, so defs reaching it are live.
	exit := &node{fact: &LineFact{Line: 0, Kind: KindPass}}
	b.nodes = append(b.nodes, exit)
	for _, e := range exits {
		e.succs = append(e.succs, exit)
	}
	if entry == nil {
		entry = exit
	}
	b.solveReachingDefs(entry)
	r.finish(b, exit)
	r.absint = runAbsint(prog)
	return r, nil
}

// builder constructs the CFG and line facts.
type builder struct {
	report *Report
	nodes  []*node
}

// buildBlock lowers a statement list into CFG nodes. parents is the
// stack of enclosing control-header lines; breakOut collects break nodes
// whose successor is whatever follows the innermost enclosing loop;
// reachable is false for statements lexically after a `break` in an
// enclosing block (they get facts, for the linter, but no edges). It
// returns the block's entry node (nil for an empty block) and the nodes
// whose control falls out of the block's end.
func (b *builder) buildBlock(stmts []ast.Stmt, parents []int, breakOut *[]*node, reachable bool) (entry *node, exits []*node) {
	var dangling []*node // exits of the previous statement, awaiting wiring
	live := reachable
	for _, s := range stmts {
		n := b.newNode(s, parents)
		inner := append(append([]int{}, parents...), s.Line())

		if !live {
			// Lexically after a break (or inside an unreachable branch):
			// collect facts so the linter can report the lines, but build
			// no edges — dead defs must not reach anything.
			n.fact.Unreachable = true
			switch st := s.(type) {
			case *ast.For:
				b.buildBlock(st.Body, inner, nil, false)
			case *ast.If:
				b.buildBlock(st.Then, inner, nil, false)
				b.buildBlock(st.Else, inner, nil, false)
			}
			continue
		}

		if entry == nil {
			entry = n
		}
		for _, e := range dangling {
			e.succs = append(e.succs, n)
		}

		switch st := s.(type) {
		case *ast.For:
			var innerBreaks []*node
			bodyEntry, bodyExits := b.buildBlock(st.Body, inner, &innerBreaks, true)
			if bodyEntry != nil {
				n.succs = append(n.succs, bodyEntry)
				for _, e := range bodyExits {
					e.succs = append(e.succs, n) // back edge
				}
			}
			// The header falls through when the range is exhausted;
			// breaks jump past the loop entirely.
			dangling = append([]*node{n}, innerBreaks...)

		case *ast.If:
			thenEntry, thenExits := b.buildBlock(st.Then, inner, breakOut, true)
			elseEntry, elseExits := b.buildBlock(st.Else, inner, breakOut, true)
			dangling = nil
			if thenEntry != nil {
				n.succs = append(n.succs, thenEntry)
				dangling = append(dangling, thenExits...)
			}
			if elseEntry != nil {
				n.succs = append(n.succs, elseEntry)
				dangling = append(dangling, elseExits...)
			} else {
				// No else: the condition can fall through.
				dangling = append(dangling, n)
			}

		case *ast.Break:
			if breakOut != nil {
				*breakOut = append(*breakOut, n)
			} else {
				b.report.breakOutsideLoop = append(b.report.breakOutsideLoop, s.Line())
			}
			dangling = nil
			live = false

		default:
			dangling = []*node{n}
		}
	}
	return entry, dangling
}

// newNode creates the CFG node and LineFact for one statement.
func (b *builder) newNode(s ast.Stmt, parents []int) *node {
	f := &LineFact{
		Line:      s.Line(),
		LoopDepth: 0,
		Parents:   append([]int{}, parents...),
		stmt:      s,
	}
	for _, p := range parents {
		if pf, ok := b.report.byLine[p]; ok && pf.Kind == KindFor {
			f.LoopDepth++
		}
	}
	uses := map[string]bool{}
	switch st := s.(type) {
	case *ast.Assign:
		f.Kind = KindAssign
		f.Defs = []string{st.Name}
		if st.AugOp != "" {
			uses[st.Name] = true
		}
	case *ast.ExprStmt:
		f.Kind = KindExpr
	case *ast.For:
		f.Kind = KindFor
		f.Defs = []string{st.Var}
	case *ast.If:
		f.Kind = KindIf
	case *ast.Pass:
		f.Kind = KindPass
	case *ast.Break:
		f.Kind = KindBreak
	}
	for _, e := range ast.ExprsOf(s) {
		ast.WalkExpr(e, func(x ast.Expr) {
			switch v := x.(type) {
			case ast.Name:
				uses[v.Ident] = true
			case *ast.Call:
				f.Calls = append(f.Calls, CallSite{Func: v.Func, Args: len(v.Args)})
			}
		})
	}
	for u := range uses {
		f.Uses = append(f.Uses, u)
	}
	sort.Strings(f.Uses)
	f.Effect = lineEffect(f.Calls)

	n := &node{fact: f}
	b.nodes = append(b.nodes, n)
	if prev, dup := b.report.byLine[f.Line]; dup {
		// Two statements on one source line cannot happen with the
		// current parser; merge conservatively if it ever does.
		mergeFacts(prev, f)
		n.fact = prev
	} else {
		b.report.byLine[f.Line] = f
		b.report.Lines = append(b.report.Lines, f)
	}
	return n
}

// lineEffect is the strongest effect among the line's calls; unknown
// builtins are conservatively host-only.
func lineEffect(calls []CallSite) builtins.Effect {
	eff := builtins.EffectPure
	for _, c := range calls {
		ce, ok := builtins.EffectOf(c.Func)
		if !ok {
			ce = builtins.EffectHostOnly
		}
		if ce > eff {
			eff = ce
		}
	}
	return eff
}

func mergeFacts(dst, src *LineFact) {
	dst.Defs = mergeSorted(dst.Defs, src.Defs)
	dst.Uses = mergeSorted(dst.Uses, src.Uses)
	dst.Calls = append(dst.Calls, src.Calls...)
	if src.Effect > dst.Effect {
		dst.Effect = src.Effect
	}
	if src.LoopDepth > dst.LoopDepth {
		dst.LoopDepth = src.LoopDepth
	}
}

func mergeSorted(a, b []string) []string {
	set := map[string]bool{}
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		set[s] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// solveReachingDefs runs the classic iterative dataflow:
//
//	out(n) = gen(n) ∪ (in(n) − kill(n)),  in(n) = ∪ out(pred)
//
// to a fixpoint. Programs are tiny (tens of lines), so the simple
// worklist over map-sets is plenty fast.
func (b *builder) solveReachingDefs(entry *node) {
	preds := map[*node][]*node{}
	for _, n := range b.nodes {
		n.in = map[defKey]bool{}
		n.out = map[defKey]bool{}
		for _, s := range n.succs {
			preds[s] = append(preds[s], n)
		}
	}
	work := []*node{entry}
	inWork := map[*node]bool{entry: true}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		inWork[n] = false

		in := map[defKey]bool{}
		for _, p := range preds[n] {
			for d := range p.out {
				in[d] = true
			}
		}
		n.in = in

		out := map[defKey]bool{}
		killed := map[string]bool{}
		for _, d := range n.fact.Defs {
			killed[d] = true
			out[defKey{line: n.fact.Line, name: d}] = true
		}
		for d := range in {
			if !killed[d.name] {
				out[d] = true
			}
		}
		if !sameSet(out, n.out) {
			n.out = out
			for _, s := range n.succs {
				if !inWork[s] {
					inWork[s] = true
					work = append(work, s)
				}
			}
		}
	}
}

func sameSet(a, b map[defKey]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// finish derives the dependence graph, undefined uses, and dead stores
// from the solved dataflow.
func (r *Report) finish(b *builder, exit *node) {
	usedDefs := map[defKey]bool{}
	seenEdge := map[DepEdge]bool{}
	addEdge := func(e DepEdge) {
		if !seenEdge[e] {
			seenEdge[e] = true
			r.Deps = append(r.Deps, e)
		}
	}

	for _, n := range b.nodes {
		f := n.fact
		if f.Line == 0 {
			continue // synthetic exit
		}
		if f.Unreachable {
			// Dead code gets its own diagnostic; piling "undefined
			// variable" on top of it (its in-set is empty by fiat) would
			// be noise.
			continue
		}
		byVar := map[string][]int{}
		for _, u := range f.Uses {
			var defs []int
			for d := range n.in {
				if d.name == u {
					defs = append(defs, d.line)
					usedDefs[d] = true
				}
			}
			sort.Ints(defs)
			byVar[u] = defs
			if len(defs) == 0 {
				r.undefined[f.Line] = append(r.undefined[f.Line], u)
			}
			for _, dl := range defs {
				if dl != f.Line {
					addEdge(DepEdge{From: dl, To: f.Line, Var: u, Kind: EdgeData})
				}
			}
		}
		r.useDefs[f.Line] = byVar
		for _, p := range f.Parents {
			addEdge(DepEdge{From: p, To: f.Line, Kind: EdgeControl})
		}
	}
	for d := range exit.in {
		r.liveOut[d] = true
	}
	// Dead stores: defs that reach no use and are not program output.
	for _, n := range b.nodes {
		f := n.fact
		for _, d := range f.Defs {
			k := defKey{line: f.Line, name: d}
			if !usedDefs[k] && !r.liveOut[k] && !f.Unreachable {
				r.deadDefs = append(r.deadDefs, k)
			}
		}
	}
	sort.Slice(r.deadDefs, func(i, j int) bool {
		if r.deadDefs[i].line != r.deadDefs[j].line {
			return r.deadDefs[i].line < r.deadDefs[j].line
		}
		return r.deadDefs[i].name < r.deadDefs[j].name
	})
	for ln := range r.undefined {
		sort.Strings(r.undefined[ln])
	}
	sort.Slice(r.Lines, func(i, j int) bool { return r.Lines[i].Line < r.Lines[j].Line })
	sort.Slice(r.Deps, func(i, j int) bool {
		a, c := r.Deps[i], r.Deps[j]
		if a.From != c.From {
			return a.From < c.From
		}
		if a.To != c.To {
			return a.To < c.To
		}
		if a.Kind != c.Kind {
			return a.Kind < c.Kind
		}
		return a.Var < c.Var
	})
}
