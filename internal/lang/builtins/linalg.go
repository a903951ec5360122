package builtins

import (
	"fmt"

	"activego/internal/lang/value"
)

func init() {
	// matmul(A, B): dense GEMM, the MatrixMul/MixedGEMM workhorse. Work is
	// 2*m*n*k; glue is negligible per output element (one dispatch does
	// n³ flops), which is why compute-bound GEMM lines rarely profit from
	// offload to the wimpy CSE — exactly the paper's §II-B1 point.
	register("matmul", 2, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		a, err := argMat("matmul", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		b, err := argMat("matmul", args, 1)
		if err != nil {
			return nil, value.Cost{}, err
		}
		if a.Cols != b.Rows {
			return nil, value.Cost{}, fmt.Errorf("builtins: matmul %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
		}
		out := value.NewMat(a.Rows, b.Cols)
		// ikj loop order for cache behaviour; correctness is what matters.
		for i := 0; i < a.Rows; i++ {
			arow := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := out.Data[i*b.Cols : (i+1)*b.Cols]
			for k := 0; k < a.Cols; k++ {
				aik := arow[k]
				if aik == 0 {
					continue
				}
				brow := b.Data[k*b.Cols : (k+1)*b.Cols]
				// Four columns a step, sliced so bounds are checked once a
				// step: a one-column loop's speed swings by a fifth with where
				// the linker places it. Each element still gets the same
				// additions in the same order.
				j := 0
				for ; j+4 <= len(brow); j += 4 {
					o, b4 := orow[j:j+4:j+4], brow[j:j+4:j+4]
					o[0] += aik * b4[0]
					o[1] += aik * b4[1]
					o[2] += aik * b4[2]
					o[3] += aik * b4[3]
				}
				for ; j < len(brow); j++ {
					orow[j] += aik * brow[j]
				}
			}
		}
		m, n, k := int64(a.Rows), int64(b.Cols), int64(a.Cols)
		work := 2 * float64(m) * float64(n) * float64(k)
		bytes := (m*k + k*n + m*n) * 8
		return out, kcost(work, m*n, GlueDense, bytes), nil
	})

	// transpose(A).
	register("transpose", 1, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		a, err := argMat("transpose", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		out := value.NewMat(a.Cols, a.Rows)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				out.Set(j, i, a.At(i, j))
			}
		}
		n := int64(a.Rows) * int64(a.Cols)
		return out, kcost(float64(n), n, GlueDense, 2*n*8), nil
	})

	// mat_scale(A, s).
	register("mat_scale", 2, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		a, err := argMat("mat_scale", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		s, err := argFloat("mat_scale", args, 1)
		if err != nil {
			return nil, value.Cost{}, err
		}
		out := value.NewMat(a.Rows, a.Cols)
		for i, x := range a.Data {
			out.Data[i] = x * s
		}
		n := int64(len(a.Data))
		return out, kcost(float64(n), n, GlueDense, 2*n*8), nil
	})

	// mat_add(A, B).
	register("mat_add", 2, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		a, err := argMat("mat_add", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		b, err := argMat("mat_add", args, 1)
		if err != nil {
			return nil, value.Cost{}, err
		}
		if a.Rows != b.Rows || a.Cols != b.Cols {
			return nil, value.Cost{}, fmt.Errorf("builtins: mat_add shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
		}
		out := value.NewMat(a.Rows, a.Cols)
		for i := range a.Data {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
		n := int64(len(a.Data))
		return out, kcost(float64(n), n, GlueDense, 3*n*8), nil
	})

	// mat_rowsum(A) -> vec of per-row sums: a reducing GEMM epilogue; its
	// output is tiny relative to input, which makes it a good offload tail.
	register("mat_rowsum", 1, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		a, err := argMat("mat_rowsum", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		out := make([]float64, a.Rows)
		for i := 0; i < a.Rows; i++ {
			var s float64
			for j := 0; j < a.Cols; j++ {
				s += a.At(i, j)
			}
			out[i] = s
		}
		n := int64(a.Rows) * int64(a.Cols)
		return value.NewVec(out), kcost(float64(n), n, GlueDense, n*8+int64(a.Rows)*8), nil
	})

	// mat_frobenius(A) -> scalar norm².
	register("mat_frobenius", 1, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		a, err := argMat("mat_frobenius", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		var s float64
		for _, x := range a.Data {
			s += x * x
		}
		n := int64(len(a.Data))
		return value.Float(s), kcost(2*float64(n), n, GlueDense, n*8), nil
	})
}
