// Package inputs holds the named input objects of a workload and knows
// how to produce the scaled-down sample inputs of ActivePy's sampling
// phase (§III-A).
//
// The paper's sampler "heuristically selects data from raw inputs" at
// four scale factors. The heuristic here is a per-object SampleMode:
// tall data (tables, vectors, point/feature matrices) is row-sampled by
// prefix; square operand matrices (GEMM inputs, dense adjacencies) are
// sampled √F per dimension so shapes stay compatible; models and
// parameters pass through whole. Prefix sampling is what makes CSR
// prediction honestly hard: if density varies across the row space, the
// prefix misrepresents it — the paper's 2.41x CSR over-estimate.
package inputs

import (
	"fmt"
	"math"

	"activego/internal/lang/builtins"
	"activego/internal/lang/value"
)

// SampleMode says how an object shrinks under a scale factor.
type SampleMode int

// Sampling modes.
const (
	// ModeRows takes the first ceil(F·n) rows/elements.
	ModeRows SampleMode = iota
	// ModeSquare scales both matrix dimensions by √F (area by F).
	ModeSquare
	// ModeWhole passes the object through unchanged (models, parameters).
	ModeWhole
)

func (m SampleMode) String() string {
	switch m {
	case ModeRows:
		return "rows"
	case ModeSquare:
		return "square"
	case ModeWhole:
		return "whole"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Entry is one registered input object.
type Entry struct {
	Value value.Value
	Mode  SampleMode
}

// Registry is a named set of input objects.
type Registry struct {
	entries map[string]Entry
	order   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]Entry{}}
}

// Add registers an object.
func (r *Registry) Add(name string, v value.Value, mode SampleMode) {
	if _, dup := r.entries[name]; !dup {
		r.order = append(r.order, name)
	}
	r.entries[name] = Entry{Value: v, Mode: mode}
}

// Get returns the raw object.
func (r *Registry) Get(name string) (Entry, bool) {
	e, ok := r.entries[name]
	return e, ok
}

// Names returns object names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.order...) }

// TotalBytes sums the raw sizes of all objects.
func (r *Registry) TotalBytes() int64 {
	var total int64
	for _, n := range r.order {
		total += r.entries[n].Value.SizeBytes()
	}
	return total
}

// Context returns a builtins.Context serving objects at the given scale
// factor (1 = raw). Stored outputs accumulate in the returned context.
func (r *Registry) Context(scale float64) *Ctx {
	return &Ctx{reg: r, scale: scale, Outputs: map[string]value.Value{}}
}

// Ctx is the builtins.Context view of a registry at one scale factor.
type Ctx struct {
	reg     *Registry
	scale   float64
	Outputs map[string]value.Value
}

var _ builtins.Context = (*Ctx)(nil)

// Load implements builtins.Context.
func (c *Ctx) Load(name string) (value.Value, int64, error) {
	e, ok := c.reg.entries[name]
	if !ok {
		return nil, 0, fmt.Errorf("inputs: no object %q", name)
	}
	v := Sample(e.Value, e.Mode, c.scale)
	return v, v.SizeBytes(), nil
}

// Store implements builtins.Context.
func (c *Ctx) Store(name string, v value.Value) (int64, error) {
	c.Outputs[name] = v
	return v.SizeBytes(), nil
}

// Sample shrinks v to the given scale under mode. Scale 1 returns v
// unchanged (no copy). A row sample is a prefix view sharing v's storage
// (value.RowView); only a square sample of a matrix, whose rows are not
// contiguous, copies.
func Sample(v value.Value, mode SampleMode, scale float64) value.Value {
	if scale >= 1 || mode == ModeWhole {
		return v
	}
	switch x := v.(type) {
	case *value.Mat:
		if mode == ModeSquare {
			f := math.Sqrt(scale)
			rows := clampCount(float64(x.Rows) * f)
			cols := clampCount(float64(x.Cols) * f)
			return prefixBlock(x, min(rows, x.Rows), min(cols, x.Cols))
		}
	case *value.CSR:
		rows := clampCount(float64(x.Rows) * scale)
		if rows >= x.Rows {
			return x
		}
		end := x.RowPtr[rows]
		return &value.CSR{
			Rows:   rows,
			Cols:   x.Cols,
			RowPtr: x.RowPtr[:rows+1],
			ColIdx: x.ColIdx[:end],
			Val:    x.Val[:end],
		}
	}
	prefix := func(rows int) (int, int) { return 0, min(clampCount(float64(rows)*scale), rows) }
	if view, ok := value.RowView(v, prefix); ok {
		return view
	}
	return v
}

func prefixBlock(m *value.Mat, rows, cols int) *value.Mat {
	if rows == m.Rows && cols == m.Cols {
		return m
	}
	out := value.NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		copy(out.Data[i*cols:(i+1)*cols], m.Data[i*m.Cols:i*m.Cols+cols])
	}
	return out
}

func clampCount(f float64) int {
	n := int(math.Ceil(f))
	if n < 1 {
		return 1
	}
	return n
}
