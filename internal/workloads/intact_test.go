package workloads_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"activego/internal/inputs"
	"activego/internal/lang/interp"
	"activego/internal/lang/parser"
	"activego/internal/lang/value"
	"activego/internal/profile"
	"activego/internal/workloads"
)

// digest hashes the data bits of every object in reg, in registration
// order.
func digest(t *testing.T, reg *inputs.Registry) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, name := range reg.Names() {
		e, _ := reg.Get(name)
		h.Write([]byte(name))
		digestValue(t, h, e.Value)
	}
	return h.Sum64()
}

func digestValue(t *testing.T, h hash.Hash64, v value.Value) {
	t.Helper()
	put := func(x uint64) { _ = binary.Write(h, binary.LittleEndian, x) }
	floats := func(xs []float64) {
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	put(uint64(v.Kind()))
	switch x := v.(type) {
	case *value.Vec:
		floats(x.Data)
	case *value.IVec:
		for _, n := range x.Data {
			put(uint64(n))
		}
	case *value.Mat:
		put(uint64(x.Rows))
		put(uint64(x.Cols))
		floats(x.Data)
	case *value.CSR:
		put(uint64(x.Rows))
		put(uint64(x.Cols))
		for _, n := range x.RowPtr {
			put(uint64(n))
		}
		for _, n := range x.ColIdx {
			put(uint64(n))
		}
		floats(x.Val)
	case *value.Table:
		for i, c := range x.Cols {
			h.Write([]byte(x.Names[i]))
			digestValue(t, h, c)
		}
	case *value.Model:
		put(uint64(x.Features))
		for _, tree := range x.Trees {
			put(uint64(len(tree)))
			for _, n := range tree {
				put(uint64(n.Feature))
				put(math.Float64bits(n.Thresh))
				put(uint64(n.Left))
				put(uint64(n.Right))
				put(math.Float64bits(n.Value))
			}
		}
	case value.Int:
		put(uint64(x))
	case value.Float:
		put(math.Float64bits(float64(x)))
	default:
		t.Fatalf("no digest for a %v input", v.Kind())
	}
}

// TestProgramsLeaveInputsIntact: row samples and row blocks share storage
// with the registry's objects, so no program may write to what it loads.
// Every workload's inputs must hash the same after the sampling phase and
// a full-scale run as before them.
func TestProgramsLeaveInputsIntact(t *testing.T) {
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst := spec.Build(workloads.Params{ScaleDiv: 2048, Seed: 42})
			prog, err := parser.Parse(inst.Source)
			if err != nil {
				t.Fatal(err)
			}
			before := digest(t, inst.Registry)
			if _, err := profile.RunScalesPool(prog, inst.Registry, profile.ScaledScales, nil, nil); err != nil {
				t.Fatal(err)
			}
			if _, _, err := interp.Run(prog, inst.Registry.Context(1)); err != nil {
				t.Fatal(err)
			}
			if after := digest(t, inst.Registry); after != before {
				t.Errorf("inputs changed: digest %#x before the runs, %#x after", before, after)
			}
		})
	}
}
