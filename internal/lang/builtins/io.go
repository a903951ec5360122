package builtins

import (
	"fmt"

	"activego/internal/lang/value"
)

func init() {
	// load(name) pulls a named input object. StorageBytes carries the
	// access volume; the execution layer decides which interconnects the
	// bytes cross (that decision is the heart of Equation 1).
	registerEffect("load", 1, EffectReadsStorage, func(ctx Context, args []value.Value) (value.Value, value.Cost, error) {
		name, err := argStr("load", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		v, bytes, err := ctx.Load(name)
		if err != nil {
			return nil, value.Cost{}, err
		}
		return v, loadCost(v, bytes), nil
	})

	// load_block(name, i, n) pulls the i-th of n row-blocks of a named
	// input object. Scan workloads stream storage in blocks — the natural
	// shape for in-storage processing, and what gives the runtime monitor
	// line boundaries frequent enough to migrate at (§III-D).
	registerEffect("load_block", 3, EffectReadsStorage, func(ctx Context, args []value.Value) (value.Value, value.Cost, error) {
		name, err := argStr("load_block", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		idx, err := argInt("load_block", args, 1)
		if err != nil {
			return nil, value.Cost{}, err
		}
		n, err := argInt("load_block", args, 2)
		if err != nil {
			return nil, value.Cost{}, err
		}
		if n <= 0 || idx < 0 || idx >= n {
			return nil, value.Cost{}, fmt.Errorf("builtins: load_block(%q, %d, %d) out of range", name, idx, n)
		}
		whole, _, err := ctx.Load(name)
		if err != nil {
			return nil, value.Cost{}, err
		}
		// Block idx covers rows [idx*rows/n, (idx+1)*rows/n), so the
		// blocks partition the rows exactly; each is a view of the input.
		v, ok := value.RowView(whole, func(rows int) (int, int) {
			return int(idx) * rows / int(n), int(idx+1) * rows / int(n)
		})
		if !ok {
			return nil, value.Cost{}, fmt.Errorf("builtins: load_block(%q): cannot take a row block of %v", name, whole.Kind())
		}
		return v, loadCost(v, v.SizeBytes()), nil
	})

	// store(name, v) persists a result object. Host-only: the stored
	// object is the program's externally visible output, and the host
	// runtime owns the object namespace it lands in.
	registerEffect("store", 2, EffectHostOnly, func(ctx Context, args []value.Value) (value.Value, value.Cost, error) {
		name, err := argStr("store", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		bytes, err := ctx.Store(name, args[1])
		if err != nil {
			return nil, value.Cost{}, err
		}
		return value.None{}, value.Cost{
			KernelWork:   0.5 * float64(bytes),
			CopyBytes:    copyBytes(bytes),
			StorageBytes: bytes,
		}, nil
	})

	// col(table, name) extracts one column (zero-copy in spirit; the
	// wrapper still pays a pass in unoptimized runtimes).
	register("col", 2, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		t, err := argTable("col", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		name, err := argStr("col", args, 1)
		if err != nil {
			return nil, value.Cost{}, err
		}
		c, ok := t.Col(name)
		if !ok {
			return nil, value.Cost{}, fmt.Errorf("builtins: table has no column %q", name)
		}
		n := int64(t.NRows)
		return c, value.Cost{GlueWork: GlueVector * 4, CopyBytes: copyBytes(n * 8), Elements: 0}, nil
	})

	// print(v...) is a diagnostic sink; free, but host-only: console
	// output is an externally visible effect and there is no console on
	// the CSE.
	registerVariadicEffect("print", 0, EffectHostOnly, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		return value.None{}, value.Cost{}, nil
	})
}

// loadCost prices reading v, bytes of it, from storage. Decoding is a
// real kernel: raw storage bytes parse into columnar arrays at about one
// work unit per byte. It is the compute the CSE performs during an
// offloaded scan, and the term that makes offloaded work sensitive to CSE
// availability (Figures 2 and 5).
func loadCost(v value.Value, bytes int64) value.Cost {
	var elems int64
	switch x := v.(type) {
	case *value.Table:
		elems = int64(x.NRows)
	case *value.Vec:
		elems = int64(x.Len())
	case *value.IVec:
		elems = int64(x.Len())
	case *value.Mat:
		elems = int64(x.Rows)
	}
	return value.Cost{
		KernelWork:   float64(bytes),
		GlueWork:     GlueVector * float64(elems),
		CopyBytes:    copyBytes(bytes),
		StorageBytes: bytes,
		Elements:     elems,
	}
}
