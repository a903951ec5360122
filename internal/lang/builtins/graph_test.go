package builtins

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"activego/internal/lang/value"
)

// csrFromDenseRef is csr_from_dense as it was first written: one pass
// through Mat.At, growing ColIdx and Val by append. It is the oracle the
// exact-size builder must match bit for bit.
func csrFromDenseRef(a *value.Mat, thr float64) (*value.CSR, value.Cost) {
	out := &value.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int32, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			v := a.At(i, j)
			if v > thr || v < -thr {
				out.ColIdx = append(out.ColIdx, int32(j))
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = int32(len(out.Val))
	}
	n := int64(a.Rows) * int64(a.Cols)
	return out, value.Cost{
		KernelWork: 1.5 * float64(n),
		GlueWork:   GlueRowLogic * float64(a.Rows),
		CopyBytes:  copyBytes(n*8 + out.SizeBytes()),
		Elements:   n,
	}
}

// edgyMat fills a seeded rows×cols matrix from values that sit on every
// edge of the |v| > thr test: exactly ±thr, ±0, NaN and ±Inf, mixed with
// ordinary draws. Every third row is left empty (all zeros).
func edgyMat(rng *rand.Rand, rows, cols int, thr float64) *value.Mat {
	edges := []float64{thr, -thr, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.Nextafter(thr, math.Inf(1)), math.Nextafter(-thr, math.Inf(-1))}
	m := value.NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		if i%3 == 2 {
			continue
		}
		for j := 0; j < cols; j++ {
			if rng.Intn(2) == 0 {
				m.Set(i, j, edges[rng.Intn(len(edges))])
			} else {
				m.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return m
}

func TestCSRFromDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var cases []*value.Mat
	for _, shape := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {3, 7}, {17, 4}, {64, 33}} {
		cases = append(cases, edgyMat(rng, shape[0], shape[1], 0.5))
	}
	ctx := NewMapContext()
	ctx.Inputs["whole"] = edgyMat(rng, 40, 9, 0.5)
	for i := int64(0); i < 4; i++ {
		blk, _, err := Call(ctx, "load_block", []value.Value{value.Str("whole"), value.Int(i), value.Int(4)})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, blk.(*value.Mat))
	}
	for ci, a := range cases {
		for _, thr := range []float64{0.5, 0, math.Copysign(0, -1), -1, math.Inf(1), math.NaN()} {
			t.Run(fmt.Sprintf("%d/%dx%d/thr=%g", ci, a.Rows, a.Cols, thr), func(t *testing.T) {
				want, wantCost := csrFromDenseRef(a, thr)
				v, cost := call(t, "csr_from_dense", a, value.Float(thr))
				got := v.(*value.CSR)
				if got.Rows != want.Rows || got.Cols != want.Cols {
					t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
				}
				if fmt.Sprint(got.RowPtr) != fmt.Sprint(want.RowPtr) || fmt.Sprint(got.ColIdx) != fmt.Sprint(want.ColIdx) {
					t.Fatalf("structure differs:\n got rowptr %v colidx %v\nwant rowptr %v colidx %v",
						got.RowPtr, got.ColIdx, want.RowPtr, want.ColIdx)
				}
				if len(got.Val) != len(want.Val) {
					t.Fatalf("%d values, want %d", len(got.Val), len(want.Val))
				}
				for k := range got.Val {
					if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
						t.Fatalf("value %d: %v, want %v", k, got.Val[k], want.Val[k])
					}
				}
				if cap(got.ColIdx) != len(got.ColIdx) || cap(got.Val) != len(got.Val) {
					t.Errorf("not exact-size: colidx len %d cap %d, val len %d cap %d",
						len(got.ColIdx), cap(got.ColIdx), len(got.Val), cap(got.Val))
				}
				if cost != wantCost {
					t.Errorf("cost %+v, want %+v", cost, wantCost)
				}
			})
		}
	}
}
