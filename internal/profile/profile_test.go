package profile

import (
	"testing"

	"activego/internal/inputs"
	"activego/internal/lang/parser"
	"activego/internal/lang/value"
)

func buildRegistry(n int) *inputs.Registry {
	reg := inputs.NewRegistry()
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i % 7)
	}
	reg.Add("v", value.NewVec(data), inputs.ModeRows)
	return reg
}

const linearProgram = `v = load("v")
w = vmul(v, 2.0)
s = vsum(w)
`

func TestSamplingRunsAllScales(t *testing.T) {
	prog, err := parser.Parse(linearProgram)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunScalesPool(prog, buildRegistry(1<<16), Scales, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 3 {
		t.Fatalf("%d line profiles, want 3", len(rep.Lines))
	}
	for _, lp := range rep.Lines {
		if len(lp.Samples) != len(Scales) {
			t.Errorf("line %d has %d samples, want %d", lp.Line, len(lp.Samples), len(Scales))
		}
	}
}

func TestLinearExtrapolationIsAccurate(t *testing.T) {
	prog, _ := parser.Parse(linearProgram)
	reg := buildRegistry(1 << 16)
	rep, err := RunScalesPool(prog, reg, ScaledScales, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The load line's storage bytes at full scale must extrapolate to the
	// object's true size within a few percent.
	lp, ok := lineOf(rep, 1)
	if !ok {
		t.Fatal("line 1 missing")
	}
	pred := lp.Predict(1)
	want := float64((1 << 16) * 8)
	if pred.StorageBytes < want*0.97 || pred.StorageBytes > want*1.03 {
		t.Errorf("storage prediction %v, want ~%v", pred.StorageBytes, want)
	}
	// vmul output = same size as input.
	lp2, _ := lineOf(rep, 2)
	p2 := lp2.Predict(1)
	if p2.OutBytes < want*0.97 || p2.OutBytes > want*1.03 {
		t.Errorf("out-bytes prediction %v, want ~%v", p2.OutBytes, want)
	}
	// The reduce line's output is scale-independent.
	lp3, _ := lineOf(rep, 3)
	p3 := lp3.Predict(1)
	if p3.OutBytes < 7 || p3.OutBytes > 9 {
		t.Errorf("scalar out prediction %v, want 8", p3.OutBytes)
	}
}

func TestPerVariablePredictions(t *testing.T) {
	prog, _ := parser.Parse(linearProgram)
	rep, err := RunScalesPool(prog, buildRegistry(1<<16), ScaledScales, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lp, _ := lineOf(rep, 2) // w = vmul(v, 2.0): reads v, writes w
	pred := lp.Predict(1)
	if len(pred.Reads) != 1 || pred.Reads[0].Name != "v" {
		t.Fatalf("reads: %+v", pred.Reads)
	}
	if len(pred.Writes) != 1 || pred.Writes[0].Name != "w" {
		t.Fatalf("writes: %+v", pred.Writes)
	}
	want := float64((1 << 16) * 8)
	if pred.Reads[0].Bytes < want*0.95 || pred.Reads[0].Bytes > want*1.05 {
		t.Errorf("v read prediction %v, want ~%v", pred.Reads[0].Bytes, want)
	}
}

func TestLoopExecCounts(t *testing.T) {
	src := `v = load("v")
acc = 0.0
for i in range(5):
    acc = acc + vsum(v)
`
	prog, _ := parser.Parse(src)
	rep, err := RunScalesPool(prog, buildRegistry(1<<12), ScaledScales, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lp, ok := lineOf(rep, 4)
	if !ok {
		t.Fatal("loop body line missing")
	}
	pred := lp.Predict(1)
	if pred.Execs < 4.9 || pred.Execs > 5.1 {
		t.Errorf("execs prediction %v, want 5", pred.Execs)
	}
}

func TestNeedsTwoScales(t *testing.T) {
	prog, _ := parser.Parse(linearProgram)
	if _, err := RunScalesPool(prog, buildRegistry(1<<10), []float64{0.5}, nil, nil); err == nil {
		t.Error("one scale factor must error")
	}
}

func TestSampleRunErrorsPropagate(t *testing.T) {
	prog, _ := parser.Parse("x = load(\"missing\")\n")
	if _, err := RunScalesPool(prog, inputs.NewRegistry(), Scales, nil, nil); err == nil {
		t.Error("missing input must fail the sampling phase")
	}
}

// lineOf returns the profile for a source line.
func lineOf(r *Report, ln int) (*LineProfile, bool) {
	for _, lp := range r.Lines {
		if lp.Line == ln {
			return lp, true
		}
	}
	return nil, false
}
