package inputs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"activego/internal/lang/builtins"
	"activego/internal/lang/value"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Add("a", value.NewVec(make([]float64, 10)), ModeRows)
	r.Add("b", value.NewMat(4, 4), ModeSquare)
	if got := r.TotalBytes(); got != 80+128 {
		t.Errorf("total %d", got)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names %v", names)
	}
	if _, ok := r.Get("a"); !ok {
		t.Error("missing a")
	}
	if _, ok := r.Get("z"); ok {
		t.Error("phantom z")
	}
}

func TestContextLoadSamples(t *testing.T) {
	r := NewRegistry()
	r.Add("v", value.NewVec(make([]float64, 1024)), ModeRows)
	ctx := r.Context(1.0 / 4)
	v, bytes, err := ctx.Load("v")
	if err != nil {
		t.Fatal(err)
	}
	if v.(*value.Vec).Len() != 256 || bytes != 256*8 {
		t.Errorf("sampled to %d elements / %d bytes", v.(*value.Vec).Len(), bytes)
	}
	if _, _, err := ctx.Load("zzz"); err == nil {
		t.Error("missing object must error")
	}
	if _, err := ctx.Store("out", value.Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.Outputs["out"]; !ok {
		t.Error("store lost")
	}
}

func TestSampleRowsTable(t *testing.T) {
	tab := value.NewTable(
		[]string{"x", "y"},
		[]value.Value{value.NewVec(make([]float64, 100)), value.NewIVec(make([]int64, 100))})
	s := Sample(tab, ModeRows, 1.0/10).(*value.Table)
	if s.NRows != 10 {
		t.Errorf("sampled %d rows", s.NRows)
	}
	if len(s.Cols) != 2 {
		t.Errorf("columns lost")
	}
}

func TestSampleSquareScalesBothDims(t *testing.T) {
	m := value.NewMat(100, 100)
	s := Sample(m, ModeSquare, 1.0/4).(*value.Mat)
	if s.Rows != 50 || s.Cols != 50 {
		t.Errorf("square sample %dx%d, want 50x50 (sqrt scaling)", s.Rows, s.Cols)
	}
}

func TestSampleSquarePrefixBlock(t *testing.T) {
	m := value.NewMat(4, 4)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	s := Sample(m, ModeSquare, 1.0/4).(*value.Mat)
	// 2x2 top-left block: 0,1 / 4,5.
	want := []float64{0, 1, 4, 5}
	for i, w := range want {
		if s.Data[i] != w {
			t.Fatalf("block: %v", s.Data)
		}
	}
}

func TestSampleWholePassesThrough(t *testing.T) {
	m := value.NewMat(8, 8)
	if Sample(m, ModeWhole, 1.0/1024) != value.Value(m) {
		t.Error("ModeWhole must pass through unchanged")
	}
}

func TestSampleScaleOneIsIdentity(t *testing.T) {
	v := value.NewVec(make([]float64, 7))
	if Sample(v, ModeRows, 1) != value.Value(v) {
		t.Error("scale 1 must return the original")
	}
}

func TestSampleNeverEmpty(t *testing.T) {
	v := value.NewVec(make([]float64, 5))
	s := Sample(v, ModeRows, 1.0/1024).(*value.Vec)
	if s.Len() < 1 {
		t.Error("samples must keep at least one element")
	}
}

func TestSampleCSRPrefix(t *testing.T) {
	c := &value.CSR{
		Rows: 4, Cols: 4,
		RowPtr: []int32{0, 2, 3, 3, 5},
		ColIdx: []int32{0, 1, 2, 0, 3},
		Val:    []float64{1, 2, 3, 4, 5},
	}
	s := Sample(c, ModeRows, 0.5).(*value.CSR)
	if s.Rows != 2 || s.NNZ() != 3 {
		t.Errorf("csr sample rows=%d nnz=%d", s.Rows, s.NNZ())
	}
}

// TestSampleMonotoneProperty: larger scale factors never yield smaller
// samples, and sampled sizes never exceed the original.
func TestSampleMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(1000)
		v := value.NewVec(make([]float64, n))
		prev := int64(0)
		for _, scale := range []float64{1.0 / 1024, 1.0 / 64, 1.0 / 8, 0.5, 1} {
			s := Sample(v, ModeRows, scale)
			size := s.SizeBytes()
			if size < prev || size > v.SizeBytes() {
				return false
			}
			prev = size
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSquareSampleAreaProperty: a square sample's area is about scale x
// the original area (within rounding of each dimension).
func TestSquareSampleAreaProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(200)
		m := value.NewMat(n, n)
		scale := []float64{1.0 / 64, 1.0 / 16, 1.0 / 4}[rng.Intn(3)]
		s := Sample(m, ModeSquare, scale).(*value.Mat)
		area := float64(s.Rows * s.Cols)
		want := scale * float64(n*n)
		// Ceil per dimension: allow generous rounding slack.
		tol := 3*math.Sqrt(want) + 3
		return math.Abs(area-want) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// checkView fails unless view is src[lo:lo+len(view)] itself: the same
// backing array, with its capacity capped at its length so that an append
// to it reallocates instead of writing into src.
func checkView[T int64 | float64](t *testing.T, what string, view, src []T, lo int) {
	t.Helper()
	if len(view) == 0 || &view[0] != &src[lo] {
		t.Errorf("%s: does not share its source's storage at element %d", what, lo)
	}
	if cap(view) != len(view) {
		t.Errorf("%s: cap %d != len %d", what, cap(view), len(view))
	}
	before := slices.Clone(src)
	sink = append(view, -1)
	if !slices.Equal(src, before) {
		t.Errorf("%s: appending to the view wrote into its source", what)
	}
}

var sink any

// TestRowViewsShareStorage pins both row views, the ModeRows sample and
// load_block's row block, to zero-copy slices of their source whose
// capacity stops at their own end.
func TestRowViewsShareStorage(t *testing.T) {
	const rows = 64
	vec := value.NewVec(make([]float64, rows))
	ivec := value.NewIVec(make([]int64, rows))
	mat := value.NewMat(rows, 3)
	for i := range vec.Data {
		vec.Data[i], ivec.Data[i] = float64(i), int64(i)
	}
	for i := range mat.Data {
		mat.Data[i] = float64(i)
	}
	tab := value.NewTable([]string{"f", "i"}, []value.Value{vec, ivec})
	r := NewRegistry()
	for _, in := range []struct {
		name string
		src  value.Value
	}{{"vec", vec}, {"ivec", ivec}, {"mat", mat}, {"tab", tab}} {
		r.Add(in.name, in.src, ModeRows)
		sample := Sample(in.src, ModeRows, 1.0/4) // rows [0, 16)
		block, _, err := builtins.Call(r.Context(1), "load_block",
			[]value.Value{value.Str(in.name), value.Int(1), value.Int(4)}) // rows [16, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			what string
			view value.Value
			lo   int
		}{{in.name + " sample", sample, 0}, {in.name + " block", block, rows / 4}} {
			switch x := v.view.(type) {
			case *value.Vec:
				checkView(t, v.what, x.Data, vec.Data, v.lo)
			case *value.IVec:
				checkView(t, v.what, x.Data, ivec.Data, v.lo)
			case *value.Mat:
				checkView(t, v.what, x.Data, mat.Data, v.lo*mat.Cols)
			case *value.Table:
				if x.NRows != rows/4 {
					t.Errorf("%s: %d rows, want %d", v.what, x.NRows, rows/4)
				}
				checkView(t, v.what+" f", x.FloatCol("f").Data, vec.Data, v.lo)
				checkView(t, v.what+" i", x.IntCol("i").Data, ivec.Data, v.lo)
			default:
				t.Errorf("%s: got %v", v.what, v.view.Kind())
			}
		}
	}
}

// TestRowSampleAllocatesOnlyItsHeader: a ModeRows matrix sample is a
// view, so sampling allocates the *Mat header and no data.
func TestRowSampleAllocatesOnlyItsHeader(t *testing.T) {
	m := value.NewMat(1024, 8)
	allocs := testing.AllocsPerRun(100, func() { sink = Sample(m, ModeRows, 1.0/8) })
	if allocs != 1 {
		t.Errorf("a ModeRows matrix sample made %v allocations, want 1 (its header)", allocs)
	}
}
