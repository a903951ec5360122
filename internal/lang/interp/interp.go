// Package interp is the mini-language evaluator: the CPython analogue of
// the reproduction.
//
// Running a program produces two things: the final environment (real
// computed values, checkable against reference Go implementations) and an
// execution Trace with one record per dynamic line instance. A record
// carries the line's value.Cost plus the variables it read and wrote with
// their byte sizes at that moment.
//
// The trace is the bridge to the simulator. Program values never depend
// on *when* or *where* a line ran — only costs and placements do — so the
// execution layer can replay the trace against the simulated platform,
// assign lines to host or CSD, charge transfers, and even migrate
// mid-run, all without re-computing values. That separation keeps every
// experiment bit-deterministic.
package interp

import (
	"fmt"
	"sync"

	"activego/internal/lang/ast"
	"activego/internal/lang/builtins"
	"activego/internal/lang/value"
)

// nodeGlue is the interpreter bytecode-dispatch overhead charged per
// evaluated AST node, in work units.
const nodeGlue = 1.0

// VarUse records one variable touched by a line.
type VarUse struct {
	Name  string
	Bytes int64
}

// LineRecord is one dynamic execution of one source line.
type LineRecord struct {
	Line   int
	Cost   value.Cost
	Reads  []VarUse // variables consumed, with sizes at read time
	Writes []VarUse // variables produced
}

// InBytes sums the record's read sizes.
func (r *LineRecord) InBytes() int64 {
	var total int64
	for _, u := range r.Reads {
		total += u.Bytes
	}
	return total
}

// OutBytes sums the record's write sizes.
func (r *LineRecord) OutBytes() int64 {
	var total int64
	for _, u := range r.Writes {
		total += u.Bytes
	}
	return total
}

// Trace is the ordered dynamic line stream of one program run. Its
// records must not change once Slots has numbered them.
type Trace struct {
	Records []LineRecord

	slotsOnce sync.Once
	slots     *VarSlots
}

// VarSlots numbers a trace's variables densely, 0 to Count-1 in order of
// first appearance, so a replay can keep per-variable state in slices
// indexed by slot rather than in maps keyed by name.
type VarSlots struct {
	Count int // distinct variable names
	// slots holds each record's read slots, then its write slots, in
	// record order; record i's reads are slots[off[2i]:off[2i+1]] and its
	// writes slots[off[2i+1]:off[2i+2]].
	slots []int32
	off   []int32
}

// Reads returns the slots of record i's reads, in the order of its Reads.
func (v *VarSlots) Reads(i int) []int32 { return v.slots[v.off[2*i]:v.off[2*i+1]] }

// Writes returns the slots of record i's writes, in the order of its
// Writes.
func (v *VarSlots) Writes(i int) []int32 { return v.slots[v.off[2*i+1]:v.off[2*i+2]] }

// Slots returns the trace's variable numbering, built on the first call
// and only read after it, so concurrent replays of one trace may share
// it. It covers any trace, however its records were made.
func (t *Trace) Slots() *VarSlots {
	t.slotsOnce.Do(func() { t.slots = numberVars(t.Records) })
	return t.slots
}

func numberVars(recs []LineRecord) *VarSlots {
	uses := 0
	for i := range recs {
		uses += len(recs[i].Reads) + len(recs[i].Writes)
	}
	v := &VarSlots{slots: make([]int32, 0, uses), off: make([]int32, 1, 2*len(recs)+1)}
	ids := map[string]int32{}
	number := func(us []VarUse) {
		for _, u := range us {
			id, ok := ids[u.Name]
			if !ok {
				id = int32(len(ids))
				ids[u.Name] = id
			}
			v.slots = append(v.slots, id)
		}
		v.off = append(v.off, int32(len(v.slots)))
	}
	for i := range recs {
		number(recs[i].Reads)
		number(recs[i].Writes)
	}
	v.Count = len(ids)
	return v
}

// Lines returns the distinct source lines present in the trace, ascending.
func (t *Trace) Lines() []int {
	seen := map[int]bool{}
	var out []int
	for i := range t.Records {
		ln := t.Records[i].Line
		if !seen[ln] {
			seen[ln] = true
			out = append(out, ln)
		}
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// Env is a variable environment.
type Env struct {
	vars map[string]value.Value
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return &Env{vars: map[string]value.Value{}} }

// Get looks up a variable.
func (e *Env) Get(name string) (value.Value, bool) {
	v, ok := e.vars[name]
	return v, ok
}

// Set binds a variable.
func (e *Env) Set(name string, v value.Value) { e.vars[name] = v }

// Names returns bound variable names (unordered).
func (e *Env) Names() []string {
	out := make([]string, 0, len(e.vars))
	for n := range e.vars {
		out = append(out, n)
	}
	return out
}

// Interp runs programs.
type Interp struct {
	ctx builtins.Context
	env *Env
	tr  *Trace

	// scratch per line
	curCost  value.Cost
	curReads []VarUse
	readSeen map[string]bool
}

// Run executes prog against ctx and returns the trace and final env.
func Run(prog *ast.Program, ctx builtins.Context) (*Trace, *Env, error) {
	in := &Interp{ctx: ctx, env: NewEnv(), tr: &Trace{}}
	err := in.execBlock(prog.Stmts)
	if err != nil {
		if _, ok := err.(breakSignalErr); ok {
			return nil, nil, fmt.Errorf("interp: break outside loop")
		}
		return nil, nil, err
	}
	return in.tr, in.env, nil
}

type breakSignalErr struct{}

func (breakSignalErr) Error() string { return "break" }

func (in *Interp) execBlock(stmts []ast.Stmt) error {
	for _, s := range stmts {
		if err := in.execStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) beginLine() {
	in.curCost = value.Cost{}
	in.curReads = in.curReads[:0]
	in.readSeen = map[string]bool{}
}

func (in *Interp) endLine(line int, writes []VarUse) {
	reads := make([]VarUse, len(in.curReads))
	copy(reads, in.curReads)
	in.tr.Records = append(in.tr.Records, LineRecord{
		Line:   line,
		Cost:   in.curCost,
		Reads:  reads,
		Writes: writes,
	})
}

func (in *Interp) noteRead(name string, v value.Value) {
	if in.readSeen[name] {
		return
	}
	in.readSeen[name] = true
	in.curReads = append(in.curReads, VarUse{Name: name, Bytes: v.SizeBytes()})
}

func (in *Interp) execStmt(s ast.Stmt) error {
	switch st := s.(type) {
	case *ast.Assign:
		in.beginLine()
		var v value.Value
		var err error
		if st.AugOp != "" {
			cur, ok := in.env.Get(st.Name)
			if !ok {
				return fmt.Errorf("interp: line %d: augmented assign to unbound %q", st.Ln, st.Name)
			}
			in.noteRead(st.Name, cur)
			rhs, err2 := in.eval(st.Value)
			if err2 != nil {
				return fmt.Errorf("interp: line %d: %v", st.Ln, err2)
			}
			v, err = in.binop(st.AugOp, cur, rhs)
			if err != nil {
				return fmt.Errorf("interp: line %d: %v", st.Ln, err)
			}
		} else {
			v, err = in.eval(st.Value)
			if err != nil {
				return fmt.Errorf("interp: line %d: %v", st.Ln, err)
			}
		}
		in.env.Set(st.Name, v)
		in.endLine(st.Ln, []VarUse{{Name: st.Name, Bytes: v.SizeBytes()}})
		return nil

	case *ast.ExprStmt:
		in.beginLine()
		_, err := in.eval(st.Expr)
		if err != nil {
			return fmt.Errorf("interp: line %d: %v", st.Ln, err)
		}
		in.endLine(st.Ln, nil)
		return nil

	case *ast.For:
		in.beginLine()
		lo, hi, step, err := in.rangeBounds(st.Range)
		if err != nil {
			return fmt.Errorf("interp: line %d: %v", st.Ln, err)
		}
		in.endLine(st.Ln, nil) // the loop header itself is one cheap line
		for i := lo; (step > 0 && i < hi) || (step < 0 && i > hi); i += step {
			in.env.Set(st.Var, value.Int(i))
			if err := in.execBlock(st.Body); err != nil {
				if _, ok := err.(breakSignalErr); ok {
					return nil
				}
				return err
			}
		}
		return nil

	case *ast.If:
		in.beginLine()
		cond, err := in.eval(st.Cond)
		if err != nil {
			return fmt.Errorf("interp: line %d: %v", st.Ln, err)
		}
		in.endLine(st.Ln, nil)
		if value.Truthy(cond) {
			return in.execBlock(st.Then)
		}
		if len(st.Else) > 0 {
			return in.execBlock(st.Else)
		}
		return nil

	case *ast.Pass:
		return nil

	case *ast.Break:
		return breakSignalErr{}
	}
	return fmt.Errorf("interp: unknown statement %T", s)
}

func (in *Interp) rangeBounds(args []ast.Expr) (lo, hi, step int64, err error) {
	vals := make([]int64, len(args))
	for i, a := range args {
		v, err2 := in.eval(a)
		if err2 != nil {
			return 0, 0, 0, err2
		}
		n, err2 := value.AsInt(v)
		if err2 != nil {
			return 0, 0, 0, err2
		}
		vals[i] = n
	}
	switch len(vals) {
	case 1:
		return 0, vals[0], 1, nil
	case 2:
		return vals[0], vals[1], 1, nil
	case 3:
		if vals[2] == 0 {
			return 0, 0, 0, fmt.Errorf("range step 0")
		}
		return vals[0], vals[1], vals[2], nil
	}
	return 0, 0, 0, fmt.Errorf("range needs 1-3 arguments")
}

func (in *Interp) eval(e ast.Expr) (value.Value, error) {
	in.curCost.GlueWork += nodeGlue
	switch x := e.(type) {
	case ast.IntLit:
		return value.Int(x.Value), nil
	case ast.FloatLit:
		return value.Float(x.Value), nil
	case ast.StrLit:
		return value.Str(x.Value), nil
	case ast.BoolLit:
		return value.Bool(x.Value), nil
	case ast.NoneLit:
		return value.None{}, nil
	case ast.Name:
		v, ok := in.env.Get(x.Ident)
		if !ok {
			return nil, fmt.Errorf("unbound variable %q", x.Ident)
		}
		in.noteRead(x.Ident, v)
		return v, nil
	case *ast.UnaryOp:
		v, err := in.eval(x.X)
		if err != nil {
			return nil, err
		}
		return in.unop(x.Op, v)
	case *ast.BinOp:
		if x.Op == "and" || x.Op == "or" {
			left, err := in.eval(x.Left)
			if err != nil {
				return nil, err
			}
			lt := value.Truthy(left)
			if (x.Op == "and" && !lt) || (x.Op == "or" && lt) {
				return left, nil
			}
			return in.eval(x.Right)
		}
		left, err := in.eval(x.Left)
		if err != nil {
			return nil, err
		}
		right, err := in.eval(x.Right)
		if err != nil {
			return nil, err
		}
		return in.binop(x.Op, left, right)
	case *ast.Call:
		args := make([]value.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := in.eval(a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		res, cost, err := builtins.Call(in.ctx, x.Func, args)
		if err != nil {
			return nil, err
		}
		in.curCost.Add(cost)
		return res, nil
	case *ast.Index:
		obj, err := in.eval(x.X)
		if err != nil {
			return nil, err
		}
		idxV, err := in.eval(x.Idx)
		if err != nil {
			return nil, err
		}
		return in.index(obj, idxV)
	}
	return nil, fmt.Errorf("unknown expression %T", e)
}

func (in *Interp) index(obj, idx value.Value) (value.Value, error) {
	switch o := obj.(type) {
	case *value.Vec:
		i, err := value.AsInt(idx)
		if err != nil {
			return nil, err
		}
		if i < 0 || int(i) >= o.Len() {
			return nil, fmt.Errorf("vec index %d out of range %d", i, o.Len())
		}
		return value.Float(o.Data[i]), nil
	case *value.IVec:
		i, err := value.AsInt(idx)
		if err != nil {
			return nil, err
		}
		if i < 0 || int(i) >= o.Len() {
			return nil, fmt.Errorf("ivec index %d out of range %d", i, o.Len())
		}
		return value.Int(o.Data[i]), nil
	case *value.Table:
		name, ok := idx.(value.Str)
		if !ok {
			return nil, fmt.Errorf("table index must be a column name")
		}
		c, ok := o.Col(string(name))
		if !ok {
			return nil, fmt.Errorf("table has no column %q", name)
		}
		return c, nil
	}
	return nil, fmt.Errorf("cannot index %v", obj.Kind())
}
