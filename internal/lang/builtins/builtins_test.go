package builtins

import (
	"math"
	"testing"
	"testing/quick"

	"activego/internal/lang/value"
)

func call(t *testing.T, name string, args ...value.Value) (value.Value, value.Cost) {
	t.Helper()
	v, c, err := Call(NewMapContext(), name, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v, c
}

func vec(xs ...float64) *value.Vec { return value.NewVec(xs) }

func asFloat(t *testing.T, v value.Value) float64 {
	t.Helper()
	f, err := value.AsFloat(v)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRegistryBasics(t *testing.T) {
	if len(registry) < 40 {
		t.Errorf("only %d builtins registered", len(registry))
	}
	if _, _, err := Call(NewMapContext(), "nosuch", nil); err == nil {
		t.Error("unknown builtin must error")
	}
	if _, _, err := Call(NewMapContext(), "vsum", nil); err == nil {
		t.Error("arity violation must error")
	}
}

func TestVectorOps(t *testing.T) {
	v, _ := call(t, "vadd", vec(1, 2), vec(3, 4))
	if d := v.(*value.Vec).Data; d[0] != 4 || d[1] != 6 {
		t.Errorf("vadd: %v", d)
	}
	v, _ = call(t, "vmul", vec(2, 3), value.Float(10))
	if d := v.(*value.Vec).Data; d[0] != 20 || d[1] != 30 {
		t.Errorf("vmul scalar: %v", d)
	}
	v, _ = call(t, "vsub", value.Float(10), vec(1, 2))
	if d := v.(*value.Vec).Data; d[0] != 9 || d[1] != 8 {
		t.Errorf("scalar vsub: %v", d)
	}
	if got := asFloat(t, mustV(call(t, "vsum", vec(1, 2, 3)))); got != 6 {
		t.Errorf("vsum: %v", got)
	}
	if got := asFloat(t, mustV(call(t, "vmean", vec(2, 4)))); got != 3 {
		t.Errorf("vmean: %v", got)
	}
	if got := asFloat(t, mustV(call(t, "vmin", vec(3, -1, 2)))); got != -1 {
		t.Errorf("vmin: %v", got)
	}
	if got := asFloat(t, mustV(call(t, "vmax", vec(3, -1, 2)))); got != 3 {
		t.Errorf("vmax: %v", got)
	}
	if got := asFloat(t, mustV(call(t, "vdot", vec(1, 2), vec(3, 4)))); got != 11 {
		t.Errorf("vdot: %v", got)
	}
}

func mustV(v value.Value, _ value.Cost) value.Value { return v }

func TestVectorLengthMismatch(t *testing.T) {
	for _, name := range []string{"vadd", "vdot", "vselect"} {
		if _, _, err := Call(NewMapContext(), name, []value.Value{vec(1), vec(1, 2)}); err == nil {
			t.Errorf("%s: length mismatch must error", name)
		}
	}
}

func TestTranscendentals(t *testing.T) {
	v, _ := call(t, "vexp", vec(0, 1))
	if d := v.(*value.Vec).Data; d[0] != 1 || math.Abs(d[1]-math.E) > 1e-12 {
		t.Errorf("vexp: %v", d)
	}
	v, _ = call(t, "norm_cdf", vec(0))
	if got := v.(*value.Vec).Data[0]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("norm_cdf(0) = %v", got)
	}
	v, _ = call(t, "sigmoid", vec(0))
	if got := v.(*value.Vec).Data[0]; got != 0.5 {
		t.Errorf("sigmoid(0) = %v", got)
	}
}

func TestSelectAndMasks(t *testing.T) {
	mask, _ := call(t, "vgt", vec(1, 5, 3), value.Float(2))
	sel, _ := call(t, "vselect", vec(10, 20, 30), mask)
	if d := sel.(*value.Vec).Data; len(d) != 2 || d[0] != 20 || d[1] != 30 {
		t.Errorf("vselect: %v", d)
	}
	// IVec mask path.
	sel, _ = call(t, "vselect", vec(10, 20, 30), value.NewIVec([]int64{1, 0, 1}))
	if d := sel.(*value.Vec).Data; len(d) != 2 || d[0] != 10 || d[1] != 30 {
		t.Errorf("vselect ivec: %v", d)
	}
}

func TestZerosFullLen(t *testing.T) {
	v, _ := call(t, "zeros", value.Int(5))
	if v.(*value.Vec).Len() != 5 {
		t.Error("zeros length")
	}
	v, _ = call(t, "full", value.Int(3), value.Float(2.5))
	if d := v.(*value.Vec).Data; d[2] != 2.5 {
		t.Errorf("full: %v", d)
	}
	n, _ := call(t, "vlen", v)
	if int64(n.(value.Int)) != 3 {
		t.Error("vlen")
	}
}

func TestMatmulCorrectAndCosted(t *testing.T) {
	a := &value.Mat{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &value.Mat{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	v, c := call(t, "matmul", a, b)
	m := v.(*value.Mat)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("matmul[%d] = %v, want %v", i, m.Data[i], w)
		}
	}
	if c.KernelWork != 2*2*3*2 {
		t.Errorf("matmul work %v, want 24", c.KernelWork)
	}
	if _, _, err := Call(NewMapContext(), "matmul", []value.Value{a, a}); err == nil {
		t.Error("shape mismatch must error")
	}
}

func TestTransposeRowsumFrobenius(t *testing.T) {
	a := &value.Mat{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	tr, _ := call(t, "transpose", a)
	if m := tr.(*value.Mat); m.At(0, 1) != 3 {
		t.Errorf("transpose: %v", m.Data)
	}
	rs, _ := call(t, "mat_rowsum", a)
	if d := rs.(*value.Vec).Data; d[0] != 3 || d[1] != 7 {
		t.Errorf("rowsum: %v", d)
	}
	fr, _ := call(t, "mat_frobenius", a)
	if got := asFloat(t, fr); got != 30 {
		t.Errorf("frobenius: %v", got)
	}
}

func TestCSRRoundtrip(t *testing.T) {
	a := value.NewMat(3, 3)
	a.Set(0, 1, 2)
	a.Set(2, 0, -3)
	v, _ := call(t, "csr_from_dense", a, value.Float(0.5))
	c := v.(*value.CSR)
	if c.NNZ() != 2 {
		t.Fatalf("nnz %d, want 2", c.NNZ())
	}
	y, _ := call(t, "spmv", c, vec(1, 1, 1))
	if d := y.(*value.Vec).Data; d[0] != 2 || d[1] != 0 || d[2] != -3 {
		t.Errorf("spmv: %v", d)
	}
	nnz, _ := call(t, "nnz", c)
	if int64(nnz.(value.Int)) != 2 {
		t.Error("nnz builtin")
	}
}

func TestCSRFromEdgesColumnStochastic(t *testing.T) {
	src := value.NewIVec([]int64{0, 0, 1})
	dst := value.NewIVec([]int64{1, 2, 2})
	v, _ := call(t, "csr_from_edges", src, dst, value.Int(3))
	g := v.(*value.CSR)
	// Node 0 has outdeg 2 -> weights 1/2; node 1 outdeg 1 -> weight 1.
	y, _ := call(t, "spmv", g, vec(1, 1, 1))
	d := y.(*value.Vec).Data
	if d[0] != 0 || d[1] != 0.5 || d[2] != 1.5 {
		t.Errorf("spmv over edge csr: %v", d)
	}
}

func TestPageRankStepPreservesMassUnderStochastic(t *testing.T) {
	// Column-stochastic graph: a 2-cycle; mass must be preserved.
	src := value.NewIVec([]int64{0, 1})
	dst := value.NewIVec([]int64{1, 0})
	g, _ := call(t, "csr_from_edges", src, dst, value.Int(2))
	r, _ := call(t, "pagerank_step", g, vec(0.5, 0.5), value.Float(0.85))
	d := r.(*value.Vec).Data
	if math.Abs(d[0]+d[1]-1) > 1e-12 {
		t.Errorf("mass %v", d[0]+d[1])
	}
}

func TestGBDTPredictMatchesManualWalk(t *testing.T) {
	model := &value.Model{
		Features: 2,
		Trees: [][]value.TreeNode{{
			{Feature: 0, Thresh: 0.5, Left: 1, Right: 2},
			{Feature: -1, Value: -1},
			{Feature: -1, Value: 2},
		}},
	}
	feats := &value.Mat{Rows: 2, Cols: 2, Data: []float64{0.2, 0, 0.9, 0}}
	v, _ := call(t, "gbdt_predict", model, feats)
	d := v.(*value.Vec).Data
	if d[0] != -1 || d[1] != 2 {
		t.Errorf("gbdt: %v", d)
	}
}

func TestKMeansBuiltins(t *testing.T) {
	pts := &value.Mat{Rows: 4, Cols: 1, Data: []float64{0, 1, 10, 11}}
	cts := &value.Mat{Rows: 2, Cols: 1, Data: []float64{0, 10}}
	lv, _ := call(t, "kmeans_assign", pts, cts)
	labels := lv.(*value.IVec)
	want := []int64{0, 0, 1, 1}
	for i, w := range want {
		if labels.Data[i] != w {
			t.Fatalf("labels: %v", labels.Data)
		}
	}
	cv, _ := call(t, "kmeans_update", pts, labels, value.Int(2))
	c := cv.(*value.Mat)
	if c.At(0, 0) != 0.5 || c.At(1, 0) != 10.5 {
		t.Errorf("centroids: %v", c.Data)
	}
}

func TestBlackScholesBuiltinsAgainstClosedForm(t *testing.T) {
	s := vec(100)
	k := vec(100)
	tt := vec(1)
	sig := vec(0.2)
	d1v, _ := call(t, "bs_d1", s, k, tt, value.Float(0.05), sig)
	d1 := d1v.(*value.Vec).Data[0]
	wantD1 := (math.Log(1.0) + (0.05+0.02)*1) / 0.2
	if math.Abs(d1-wantD1) > 1e-12 {
		t.Fatalf("d1 = %v, want %v", d1, wantD1)
	}
	n1, _ := call(t, "norm_cdf", d1v)
	d2v, _ := call(t, "vsub", d1v, vec(0.2))
	n2, _ := call(t, "norm_cdf", d2v)
	pv, _ := call(t, "bs_price", s, k, tt, value.Float(0.05), n1, n2)
	price := pv.(*value.Vec).Data[0]
	if price < 10.4 || price > 10.5 { // canonical ATM call ~10.45
		t.Errorf("bs price %v, want ~10.45", price)
	}
}

func TestLoadStoreContext(t *testing.T) {
	ctx := NewMapContext()
	ctx.Inputs["x"] = vec(1, 2, 3)
	v, c, err := Call(ctx, "load", []value.Value{value.Str("x")})
	if err != nil {
		t.Fatal(err)
	}
	if c.StorageBytes != 24 {
		t.Errorf("load storage bytes %d", c.StorageBytes)
	}
	if _, _, err := Call(ctx, "load", []value.Value{value.Str("missing")}); err == nil {
		t.Error("missing object must error")
	}
	if _, _, err := Call(ctx, "store", []value.Value{value.Str("out"), v}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.Outputs["out"]; !ok {
		t.Error("store did not persist")
	}
}

func TestLoadBlockPartitionsExactly(t *testing.T) {
	ctx := NewMapContext()
	ctx.Inputs["v"] = vec(0, 1, 2, 3, 4, 5, 6)
	var total int
	for i := 0; i < 3; i++ {
		v, c, err := Call(ctx, "load_block", []value.Value{value.Str("v"), value.Int(int64(i)), value.Int(3)})
		if err != nil {
			t.Fatal(err)
		}
		blk := v.(*value.Vec)
		total += blk.Len()
		if c.StorageBytes != blk.SizeBytes() {
			t.Errorf("block %d: storage %d vs size %d", i, c.StorageBytes, blk.SizeBytes())
		}
	}
	if total != 7 {
		t.Errorf("blocks cover %d elements, want 7", total)
	}
	if _, _, err := Call(ctx, "load_block", []value.Value{value.Str("v"), value.Int(3), value.Int(3)}); err == nil {
		t.Error("out-of-range block must error")
	}
}

func TestShapeBuiltins(t *testing.T) {
	m := value.NewMat(3, 5)
	r, _ := call(t, "nrows", m)
	c, _ := call(t, "ncols", m)
	if int64(r.(value.Int)) != 3 || int64(c.(value.Int)) != 5 {
		t.Errorf("nrows/ncols: %v %v", r, c)
	}
}

// TestCostsNonNegative is a property test: every vector builtin reports
// non-negative costs and Elements consistent with input length.
func TestCostsNonNegative(t *testing.T) {
	f := func(data []float64) bool {
		if len(data) == 0 {
			data = []float64{1}
		}
		v := value.NewVec(data)
		for _, name := range []string{"vsum", "vexp", "vabs", "vmean"} {
			_, c, err := Call(NewMapContext(), name, []value.Value{v})
			if err != nil {
				return false
			}
			if c.KernelWork < 0 || c.GlueWork < 0 || c.CopyBytes < 0 || c.Elements != int64(len(data)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestVselectSubsetProperty: vselect output is always a subsequence no
// longer than its input, and its cost reflects real selectivity.
func TestVselectSubsetProperty(t *testing.T) {
	f := func(data []float64) bool {
		v := value.NewVec(data)
		mask := make([]float64, len(data))
		for i, x := range data {
			if x > 0 {
				mask[i] = 1
			}
		}
		out, _, err := Call(NewMapContext(), "vselect", []value.Value{v, value.NewVec(mask)})
		if err != nil {
			return false
		}
		ov := out.(*value.Vec)
		if ov.Len() > v.Len() {
			return false
		}
		for _, x := range ov.Data {
			if !(x > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
