// Package value defines the runtime values of the activego mini-language
// and the cost records that every kernel reports.
//
// The mini-language stands in for Python in our ActivePy reproduction, so
// its value set mirrors what the paper's workloads manipulate: scalars,
// dense vectors and matrices, CSR sparse matrices, and columnar tables
// (for TPC-H). Every value knows its byte size — the D_in/D_out terms of
// the paper's Equation 1 are sums of these.
//
// A value is never written after it is built: kernels read their
// arguments and allocate their results. That is what lets sampled inputs
// and row blocks be views (RowView) that share storage with their source
// rather than copies of it.
package value

import (
	"fmt"
	"slices"
	"strings"
)

// Kind enumerates value types.
type Kind int

// Value kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindBool
	KindStr
	KindVec
	KindIVec
	KindMat
	KindCSR
	KindTable
	KindModel
	KindNone
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindStr:
		return "str"
	case KindVec:
		return "vec"
	case KindIVec:
		return "ivec"
	case KindMat:
		return "mat"
	case KindCSR:
		return "csr"
	case KindTable:
		return "table"
	case KindModel:
		return "model"
	case KindNone:
		return "none"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Value is any mini-language runtime value.
type Value interface {
	Kind() Kind
	// SizeBytes is the value's data footprint; it feeds Equation 1.
	SizeBytes() int64
	String() string
}

// None is the unit value.
type None struct{}

// Kind implements Value.
func (None) Kind() Kind { return KindNone }

// SizeBytes implements Value.
func (None) SizeBytes() int64 { return 0 }

func (None) String() string { return "None" }

// Int is a 64-bit integer.
type Int int64

// Kind implements Value.
func (Int) Kind() Kind { return KindInt }

// SizeBytes implements Value.
func (Int) SizeBytes() int64 { return 8 }

func (i Int) String() string { return fmt.Sprintf("%d", int64(i)) }

// Float is a 64-bit float.
type Float float64

// Kind implements Value.
func (Float) Kind() Kind { return KindFloat }

// SizeBytes implements Value.
func (Float) SizeBytes() int64 { return 8 }

func (f Float) String() string { return fmt.Sprintf("%g", float64(f)) }

// Bool is a boolean.
type Bool bool

// Kind implements Value.
func (Bool) Kind() Kind { return KindBool }

// SizeBytes implements Value.
func (Bool) SizeBytes() int64 { return 1 }

func (b Bool) String() string {
	if b {
		return "True"
	}
	return "False"
}

// Str is a string.
type Str string

// Kind implements Value.
func (Str) Kind() Kind { return KindStr }

// SizeBytes implements Value.
func (s Str) SizeBytes() int64 { return int64(len(s)) }

func (s Str) String() string { return string(s) }

// Vec is a dense float64 vector.
type Vec struct{ Data []float64 }

// NewVec wraps data in a Vec.
func NewVec(data []float64) *Vec { return &Vec{Data: data} }

// Kind implements Value.
func (*Vec) Kind() Kind { return KindVec }

// SizeBytes implements Value.
func (v *Vec) SizeBytes() int64 { return int64(len(v.Data)) * 8 }

// Len returns the element count.
func (v *Vec) Len() int { return len(v.Data) }

func (v *Vec) String() string {
	return fmt.Sprintf("vec(len=%d)", len(v.Data))
}

// IVec is a dense int64 vector.
type IVec struct{ Data []int64 }

// NewIVec wraps data in an IVec.
func NewIVec(data []int64) *IVec { return &IVec{Data: data} }

// Kind implements Value.
func (*IVec) Kind() Kind { return KindIVec }

// SizeBytes implements Value.
func (v *IVec) SizeBytes() int64 { return int64(len(v.Data)) * 8 }

// Len returns the element count.
func (v *IVec) Len() int { return len(v.Data) }

func (v *IVec) String() string {
	return fmt.Sprintf("ivec(len=%d)", len(v.Data))
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMat allocates a zero matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Kind implements Value.
func (*Mat) Kind() Kind { return KindMat }

// SizeBytes implements Value.
func (m *Mat) SizeBytes() int64 { return int64(len(m.Data)) * 8 }

// At returns element (r, c).
func (m *Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Mat) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

func (m *Mat) String() string {
	return fmt.Sprintf("mat(%dx%d)", m.Rows, m.Cols)
}

// CSR is a compressed-sparse-row matrix: the format whose output volume
// the paper's predictor over-estimates (§V) because sparsity is hard to
// see in small samples.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32 // len Rows+1
	ColIdx     []int32 // len NNZ
	Val        []float64
}

// Kind implements Value.
func (*CSR) Kind() Kind { return KindCSR }

// NNZ returns the stored-nonzero count.
func (c *CSR) NNZ() int { return len(c.Val) }

// SizeBytes implements Value: rowptr (4B) + colidx (4B) + vals (8B).
func (c *CSR) SizeBytes() int64 {
	return int64(len(c.RowPtr))*4 + int64(len(c.ColIdx))*4 + int64(len(c.Val))*8
}

func (c *CSR) String() string {
	return fmt.Sprintf("csr(%dx%d,nnz=%d)", c.Rows, c.Cols, c.NNZ())
}

// Table is a columnar table; every column is a *Vec or *IVec of equal
// length. TPC-H's lineitem and part live in Tables.
type Table struct {
	Names []string
	Cols  []Value // parallel to Names
	NRows int
}

// NewTable builds a table; panics on ragged or misnamed input.
func NewTable(names []string, cols []Value) *Table {
	if len(names) != len(cols) {
		panic("value: table names/cols length mismatch")
	}
	n := -1
	for i, c := range cols {
		var l int
		switch cv := c.(type) {
		case *Vec:
			l = cv.Len()
		case *IVec:
			l = cv.Len()
		default:
			panic(fmt.Sprintf("value: table column %q has kind %v", names[i], c.Kind()))
		}
		if n == -1 {
			n = l
		} else if n != l {
			panic(fmt.Sprintf("value: ragged table: column %q has %d rows, want %d", names[i], l, n))
		}
	}
	if n == -1 {
		n = 0
	}
	return &Table{Names: names, Cols: cols, NRows: n}
}

// Kind implements Value.
func (*Table) Kind() Kind { return KindTable }

// SizeBytes implements Value.
func (t *Table) SizeBytes() int64 {
	var total int64
	for _, c := range t.Cols {
		total += c.SizeBytes()
	}
	return total
}

// Col returns the column named name.
func (t *Table) Col(name string) (Value, bool) {
	for i, n := range t.Names {
		if n == name {
			return t.Cols[i], true
		}
	}
	return nil, false
}

// MustCol returns the named column or panics.
func (t *Table) MustCol(name string) Value {
	c, ok := t.Col(name)
	if !ok {
		panic(fmt.Sprintf("value: table has no column %q (have %s)", name, strings.Join(t.Names, ",")))
	}
	return c
}

// FloatCol returns the named column as *Vec or panics.
func (t *Table) FloatCol(name string) *Vec {
	c := t.MustCol(name)
	v, ok := c.(*Vec)
	if !ok {
		panic(fmt.Sprintf("value: column %q is %v, want vec", name, c.Kind()))
	}
	return v
}

// IntCol returns the named column as *IVec or panics.
func (t *Table) IntCol(name string) *IVec {
	c := t.MustCol(name)
	v, ok := c.(*IVec)
	if !ok {
		panic(fmt.Sprintf("value: column %q is %v, want ivec", name, c.Kind()))
	}
	return v
}

func (t *Table) String() string {
	return fmt.Sprintf("table(%d rows, cols=%s)", t.NRows, strings.Join(t.Names, ","))
}

// RowView returns a run of v's rows as a view sharing v's storage. span
// is given v's row count and picks the half-open range [lo, hi). A row is
// an element of a Vec or IVec, a row of a Mat, and a row of every column
// of a Table. Every slice in the view is capacity-capped, so an append to
// it reallocates instead of writing into v. ok is false, and span is not
// called, for any other kind.
func RowView(v Value, span func(rows int) (lo, hi int)) (view Value, ok bool) {
	switch x := v.(type) {
	case *Vec:
		lo, hi := span(len(x.Data))
		return &Vec{Data: x.Data[lo:hi:hi]}, true
	case *IVec:
		lo, hi := span(len(x.Data))
		return &IVec{Data: x.Data[lo:hi:hi]}, true
	case *Mat:
		lo, hi := span(x.Rows)
		return &Mat{Rows: hi - lo, Cols: x.Cols, Data: x.Data[lo*x.Cols : hi*x.Cols : hi*x.Cols]}, true
	case *Table:
		lo, hi := span(x.NRows)
		cols := make([]Value, len(x.Cols))
		same := func(int) (int, int) { return lo, hi }
		for i, c := range x.Cols {
			cols[i], _ = RowView(c, same)
		}
		return &Table{Names: slices.Clip(x.Names), Cols: cols, NRows: hi - lo}, true
	}
	return nil, false
}

// TreeNode is one node of a decision tree in a Model.
type TreeNode struct {
	Feature int     // -1 for leaf
	Thresh  float64 // split threshold
	Left    int32   // child indices; unused for leaf
	Right   int32
	Value   float64 // leaf value
}

// Model is a gradient-boosted decision tree ensemble (the LightGBM
// workload's model object).
type Model struct {
	Trees    [][]TreeNode
	Features int
}

// Kind implements Value.
func (*Model) Kind() Kind { return KindModel }

// SizeBytes implements Value: 32 bytes per node.
func (m *Model) SizeBytes() int64 {
	var nodes int64
	for _, t := range m.Trees {
		nodes += int64(len(t))
	}
	return nodes * 32
}

func (m *Model) String() string {
	return fmt.Sprintf("model(trees=%d,features=%d)", len(m.Trees), m.Features)
}

// Truthy reports Python-style truthiness.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case Bool:
		return bool(x)
	case Int:
		return x != 0
	case Float:
		return x != 0
	case Str:
		return len(x) > 0
	case None:
		return false
	case *Vec:
		return x.Len() > 0
	case *IVec:
		return x.Len() > 0
	case *Table:
		return x.NRows > 0
	default:
		return true
	}
}

// AsFloat converts scalar values to float64.
func AsFloat(v Value) (float64, error) {
	switch x := v.(type) {
	case Int:
		return float64(x), nil
	case Float:
		return float64(x), nil
	case Bool:
		if x {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("value: cannot use %v as number", v.Kind())
}

// AsInt converts scalar values to int64.
func AsInt(v Value) (int64, error) {
	switch x := v.(type) {
	case Int:
		return int64(x), nil
	case Float:
		return int64(x), nil
	case Bool:
		if x {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("value: cannot use %v as integer", v.Kind())
}
