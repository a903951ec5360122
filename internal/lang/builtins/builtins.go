// Package builtins implements the mini-language's kernel library: the
// operations ActivePy programs are made of. Every builtin does two things
// at once:
//
//  1. it computes a real result (so program outputs can be checked against
//     reference Go implementations), and
//  2. it reports a value.Cost describing the algorithmic work, the
//     interpreter glue, the wrapper-copy traffic, and the storage bytes it
//     touched.
//
// The execution layer converts costs into simulated time on whichever
// compute unit runs the line; the sampling phase records them per line on
// scaled inputs and extrapolates (§III-A of the paper). Keeping real
// computation and cost reporting in one place is what lets prediction
// error in the reproduction arise from genuine data-dependence (CSR
// sparsity, filter selectivity) rather than from injected noise.
package builtins

import (
	"fmt"

	"activego/internal/lang/value"
)

// Context is what builtins may ask of their environment. The execution
// layer provides one; tests can use a plain MapContext.
type Context interface {
	// Load returns the named input object and the number of storage bytes
	// the access represents.
	Load(name string) (value.Value, int64, error)
	// Store persists a value under name and returns its byte size.
	Store(name string, v value.Value) (int64, error)
}

// Effect is a builtin's statically declared interaction with the world
// outside its arguments. The static analysis pass derives per-line
// offload legality from it: a line is only eligible for the CSD when
// every builtin it calls is at most EffectReadsStorage.
type Effect int

// Effect signatures, ordered by how much they constrain placement.
const (
	// EffectPure computes a value from its arguments and touches nothing
	// else. Legal anywhere.
	EffectPure Effect = iota
	// EffectReadsStorage reads named storage objects (load, load_block).
	// Legal anywhere — reading near the data is the whole point of ISP.
	EffectReadsStorage
	// EffectHostOnly has an externally visible effect that must happen on
	// the host in program order (print's console output, store's
	// persisted result object). Offloading such a line is illegal: the
	// effect would fire device-side, invisible to the host runtime.
	EffectHostOnly
)

func (e Effect) String() string {
	switch e {
	case EffectPure:
		return "pure"
	case EffectReadsStorage:
		return "reads-storage"
	case EffectHostOnly:
		return "host-only"
	}
	return fmt.Sprintf("effect(%d)", int(e))
}

// Builtin is one kernel.
type Builtin struct {
	Name     string
	Arity    int // exact argument count; -1 means variadic
	MinArity int // for variadic builtins
	Effect   Effect
	Fn       func(ctx Context, args []value.Value) (value.Value, value.Cost, error)
}

var registry = map[string]*Builtin{}

func register(name string, arity int, fn func(ctx Context, args []value.Value) (value.Value, value.Cost, error)) {
	registerEffect(name, arity, EffectPure, fn)
}

func registerEffect(name string, arity int, effect Effect, fn func(ctx Context, args []value.Value) (value.Value, value.Cost, error)) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("builtins: duplicate registration of %q", name))
	}
	registry[name] = &Builtin{Name: name, Arity: arity, MinArity: arity, Effect: effect, Fn: fn}
}

func registerVariadicEffect(name string, minArity int, effect Effect, fn func(ctx Context, args []value.Value) (value.Value, value.Cost, error)) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("builtins: duplicate registration of %q", name))
	}
	registry[name] = &Builtin{Name: name, Arity: -1, MinArity: minArity, Effect: effect, Fn: fn}
}

// EffectOf reports the declared effect signature of a builtin.
func EffectOf(name string) (Effect, bool) {
	b, ok := registry[name]
	if !ok {
		return EffectPure, false
	}
	return b.Effect, true
}

// Lookup finds a builtin by name.
func Lookup(name string) (*Builtin, bool) {
	b, ok := registry[name]
	return b, ok
}

// Call validates arity and invokes the builtin.
func Call(ctx Context, name string, args []value.Value) (value.Value, value.Cost, error) {
	b, ok := registry[name]
	if !ok {
		return nil, value.Cost{}, fmt.Errorf("builtins: unknown function %q", name)
	}
	if b.Arity >= 0 && len(args) != b.Arity {
		return nil, value.Cost{}, fmt.Errorf("builtins: %s takes %d args, got %d", name, b.Arity, len(args))
	}
	if b.Arity < 0 && len(args) < b.MinArity {
		return nil, value.Cost{}, fmt.Errorf("builtins: %s takes at least %d args, got %d", name, b.MinArity, len(args))
	}
	return b.Fn(ctx, args)
}

// MapContext is a simple in-memory Context for tests and reference runs.
type MapContext struct {
	Inputs  map[string]value.Value
	Outputs map[string]value.Value
}

// NewMapContext creates an empty MapContext.
func NewMapContext() *MapContext {
	return &MapContext{Inputs: map[string]value.Value{}, Outputs: map[string]value.Value{}}
}

// Load implements Context.
func (m *MapContext) Load(name string) (value.Value, int64, error) {
	v, ok := m.Inputs[name]
	if !ok {
		return nil, 0, fmt.Errorf("builtins: no input object %q", name)
	}
	return v, v.SizeBytes(), nil
}

// Store implements Context.
func (m *MapContext) Store(name string, v value.Value) (int64, error) {
	m.Outputs[name] = v
	return v.SizeBytes(), nil
}

// ---- argument helpers ----

func argVec(name string, args []value.Value, i int) (*value.Vec, error) {
	v, ok := args[i].(*value.Vec)
	if !ok {
		return nil, fmt.Errorf("builtins: %s arg %d is %v, want vec", name, i, args[i].Kind())
	}
	return v, nil
}

func argIVec(name string, args []value.Value, i int) (*value.IVec, error) {
	v, ok := args[i].(*value.IVec)
	if !ok {
		return nil, fmt.Errorf("builtins: %s arg %d is %v, want ivec", name, i, args[i].Kind())
	}
	return v, nil
}

func argMat(name string, args []value.Value, i int) (*value.Mat, error) {
	v, ok := args[i].(*value.Mat)
	if !ok {
		return nil, fmt.Errorf("builtins: %s arg %d is %v, want mat", name, i, args[i].Kind())
	}
	return v, nil
}

func argCSR(name string, args []value.Value, i int) (*value.CSR, error) {
	v, ok := args[i].(*value.CSR)
	if !ok {
		return nil, fmt.Errorf("builtins: %s arg %d is %v, want csr", name, i, args[i].Kind())
	}
	return v, nil
}

func argTable(name string, args []value.Value, i int) (*value.Table, error) {
	v, ok := args[i].(*value.Table)
	if !ok {
		return nil, fmt.Errorf("builtins: %s arg %d is %v, want table", name, i, args[i].Kind())
	}
	return v, nil
}

func argModel(name string, args []value.Value, i int) (*value.Model, error) {
	v, ok := args[i].(*value.Model)
	if !ok {
		return nil, fmt.Errorf("builtins: %s arg %d is %v, want model", name, i, args[i].Kind())
	}
	return v, nil
}

func argFloat(name string, args []value.Value, i int) (float64, error) {
	f, err := value.AsFloat(args[i])
	if err != nil {
		return 0, fmt.Errorf("builtins: %s arg %d: %v", name, i, err)
	}
	return f, nil
}

func argInt(name string, args []value.Value, i int) (int64, error) {
	n, err := value.AsInt(args[i])
	if err != nil {
		return 0, fmt.Errorf("builtins: %s arg %d: %v", name, i, err)
	}
	return n, nil
}

func argStr(name string, args []value.Value, i int) (string, error) {
	s, ok := args[i].(value.Str)
	if !ok {
		return "", fmt.Errorf("builtins: %s arg %d is %v, want str", name, i, args[i].Kind())
	}
	return string(s), nil
}
