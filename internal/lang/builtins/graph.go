package builtins

import (
	"fmt"
	"math"

	"activego/internal/lang/value"
)

func init() {
	// csr_from_dense(A, threshold) -> CSR keeping |a_ij| > threshold.
	// The paper's predictor over-estimates this kernel's output volume by
	// up to 2.41x (§V): sparsity is data-dependent and invisible in tiny
	// samples. In this reproduction the effect is genuine — sample rows of
	// a matrix whose density varies across the row space extrapolate to
	// the wrong NNZ.
	register("csr_from_dense", 2, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		a, err := argMat("csr_from_dense", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		thr, err := argFloat("csr_from_dense", args, 1)
		if err != nil {
			return nil, value.Cost{}, err
		}
		// Count, then fill ColIdx and Val at exact size. |v| > thr is
		// v > thr || v < -thr for any thr, and counts without a branch.
		nnz := 0
		for _, v := range a.Data {
			if math.Abs(v) > thr {
				nnz++
			}
		}
		out := &value.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int32, a.Rows+1),
			ColIdx: make([]int32, nnz), Val: make([]float64, nnz)}
		k := 0
		for i := 0; i < a.Rows; i++ {
			for j, v := range a.Data[i*a.Cols : (i+1)*a.Cols] {
				if math.Abs(v) > thr {
					out.ColIdx[k], out.Val[k] = int32(j), v
					k++
				}
			}
			out.RowPtr[i+1] = int32(k)
		}
		n := int64(a.Rows) * int64(a.Cols)
		return out, value.Cost{
			KernelWork: 1.5 * float64(n),
			GlueWork:   GlueRowLogic * float64(a.Rows),
			CopyBytes:  copyBytes(n*8 + out.SizeBytes()),
			Elements:   n,
		}, nil
	})

	// csr_from_edges(src, dst, n) -> column-stochastic adjacency CSR for
	// PageRank: entry (d, s) = 1/outdeg(s), rows indexed by destination.
	register("csr_from_edges", 3, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		src, err := argIVec("csr_from_edges", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		dst, err := argIVec("csr_from_edges", args, 1)
		if err != nil {
			return nil, value.Cost{}, err
		}
		n64, err := argInt("csr_from_edges", args, 2)
		if err != nil {
			return nil, value.Cost{}, err
		}
		n := int(n64)
		if src.Len() != dst.Len() {
			return nil, value.Cost{}, fmt.Errorf("builtins: csr_from_edges src %d vs dst %d", src.Len(), dst.Len())
		}
		m := src.Len()
		outdeg := make([]int32, n)
		rowCount := make([]int32, n)
		for e := 0; e < m; e++ {
			s, d := src.Data[e], dst.Data[e]
			if s < 0 || s >= n64 || d < 0 || d >= n64 {
				return nil, value.Cost{}, fmt.Errorf("builtins: csr_from_edges edge (%d,%d) out of range %d", s, d, n)
			}
			outdeg[s]++
			rowCount[d]++
		}
		out := &value.CSR{Rows: n, Cols: n, RowPtr: make([]int32, n+1)}
		for i := 0; i < n; i++ {
			out.RowPtr[i+1] = out.RowPtr[i] + rowCount[i]
		}
		out.ColIdx = make([]int32, m)
		out.Val = make([]float64, m)
		fill := make([]int32, n)
		copy(fill, out.RowPtr[:n])
		for e := 0; e < m; e++ {
			s, d := src.Data[e], dst.Data[e]
			p := fill[d]
			fill[d]++
			out.ColIdx[p] = int32(s)
			out.Val[p] = 1 / float64(outdeg[s])
		}
		me := int64(m)
		return out, value.Cost{
			KernelWork: 6 * float64(m),
			GlueWork:   GlueRowLogic * float64(m) / 4,
			CopyBytes:  copyBytes(2*me*8 + out.SizeBytes()),
			Elements:   me,
		}, nil
	})

	// spmv(A, x) -> A·x for CSR A: the SparseMV workload and the PageRank
	// inner product. O(nnz).
	register("spmv", 2, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		a, err := argCSR("spmv", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		x, err := argVec("spmv", args, 1)
		if err != nil {
			return nil, value.Cost{}, err
		}
		if x.Len() != a.Cols {
			return nil, value.Cost{}, fmt.Errorf("builtins: spmv dims %dx%d by %d", a.Rows, a.Cols, x.Len())
		}
		out := make([]float64, a.Rows)
		for i := 0; i < a.Rows; i++ {
			var s float64
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				s += a.Val[p] * x.Data[a.ColIdx[p]]
			}
			out[i] = s
		}
		nnz := int64(a.NNZ())
		return value.NewVec(out), kcost(2*float64(nnz), nnz, GlueCompound, a.SizeBytes()+int64(a.Rows+x.Len())*8), nil
	})

	// pagerank_step(A, r, damping) -> damping*A·r + (1-damping)/n.
	register("pagerank_step", 3, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		a, err := argCSR("pagerank_step", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		r, err := argVec("pagerank_step", args, 1)
		if err != nil {
			return nil, value.Cost{}, err
		}
		d, err := argFloat("pagerank_step", args, 2)
		if err != nil {
			return nil, value.Cost{}, err
		}
		if r.Len() != a.Cols {
			return nil, value.Cost{}, fmt.Errorf("builtins: pagerank_step dims %dx%d by %d", a.Rows, a.Cols, r.Len())
		}
		out := make([]float64, a.Rows)
		base := (1 - d) / float64(a.Rows)
		for i := 0; i < a.Rows; i++ {
			var s float64
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				s += a.Val[p] * r.Data[a.ColIdx[p]]
			}
			out[i] = d*s + base
		}
		nnz := int64(a.NNZ())
		return value.NewVec(out), kcost(2*float64(nnz)+3*float64(a.Rows), nnz, GlueCompound, a.SizeBytes()+int64(a.Rows+r.Len())*8), nil
	})

	// nnz(A) -> stored-nonzero count.
	register("nnz", 1, func(_ Context, args []value.Value) (value.Value, value.Cost, error) {
		a, err := argCSR("nnz", args, 0)
		if err != nil {
			return nil, value.Cost{}, err
		}
		return value.Int(a.NNZ()), value.Cost{}, nil
	})
}
