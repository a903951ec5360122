package builtins

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"activego/internal/lang/value"
)

// matmulRef is matmul's original one-column ikj loop, the oracle the
// four-column loop must match bit for bit.
func matmulRef(a, b *value.Mat) *value.Mat {
	out := value.NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j := range brow {
				orow[j] += aik * brow[j]
			}
		}
	}
	return out
}

// TestMatmulMatchesOneColumnLoop covers every column count mod 4, zero
// and negative-zero entries of A (skipped) and a row-block view as A.
func TestMatmulMatchesOneColumnLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fill := func(m *value.Mat) *value.Mat {
		for i := range m.Data {
			switch rng.Intn(5) {
			case 0:
				m.Data[i] = 0
			case 1:
				m.Data[i] = math.Copysign(0, -1)
			default:
				m.Data[i] = rng.NormFloat64() * 1e3
			}
		}
		return m
	}
	for cols := 0; cols <= 9; cols++ {
		for _, inner := range []int{1, 5, 16} {
			a, b := fill(value.NewMat(13, inner)), fill(value.NewMat(inner, cols))
			ctx := NewMapContext()
			ctx.Inputs["a"] = a
			blk, _, err := Call(ctx, "load_block", []value.Value{value.Str("a"), value.Int(1), value.Int(2)})
			if err != nil {
				t.Fatal(err)
			}
			for _, lhs := range []*value.Mat{a, blk.(*value.Mat)} {
				t.Run(fmt.Sprintf("%dx%dx%d", lhs.Rows, inner, cols), func(t *testing.T) {
					v, _ := call(t, "matmul", lhs, b)
					got, want := v.(*value.Mat), matmulRef(lhs, b)
					for i := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("element %d: %v, want %v", i, got.Data[i], want.Data[i])
						}
					}
				})
			}
		}
	}
}
