package fit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var sampleXs = []float64{1.0 / 1024, 1.0 / 512, 1.0 / 256, 1.0 / 128}

func genYs(c Curve, a, b float64) []float64 {
	ys := make([]float64, len(sampleXs))
	for i, x := range sampleXs {
		ys[i] = a*c.g(x) + b
	}
	return ys
}

func TestRecoversEachCurve(t *testing.T) {
	for _, c := range Curves {
		m, err := Fit(sampleXs, genYs(c, 5000, 3))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		// The recovered curve must reproduce the generating values.
		for _, x := range sampleXs {
			want := 5000*c.g(x) + 3
			got := m.Predict(x)
			if math.Abs(got-want) > 1e-6*math.Abs(want)+1e-9 {
				t.Errorf("curve %v fitted as %v: at %g predict %g want %g", c, m.Curve, x, got, want)
			}
		}
	}
}

func TestLinearExtrapolatesExactly(t *testing.T) {
	m, err := Fit(sampleXs, genYs(ON, 1e6, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Curve != ON {
		t.Fatalf("picked %v, want O(n)", m.Curve)
	}
	if got := m.Predict(1); math.Abs(got-1e6) > 1 {
		t.Errorf("extrapolation to 1: %v, want 1e6", got)
	}
}

func TestConstantPrediction(t *testing.T) {
	m, err := Fit(sampleXs, []float64{8, 8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.Curve != O1 {
		t.Errorf("picked %v for constant data", m.Curve)
	}
	if m.Predict(1) != 8 {
		t.Errorf("predict %v, want 8", m.Predict(1))
	}
}

func TestQuadraticBeatsLinearOnQuadraticData(t *testing.T) {
	m, err := Fit(sampleXs, genYs(ON2, 1e9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Curve != ON2 {
		t.Errorf("picked %v for quadratic data", m.Curve)
	}
	if got, want := m.Predict(1), 1e9; math.Abs(got-want)/want > 1e-6 {
		t.Errorf("predict %g, want %g", got, want)
	}
}

func TestPredictClampsNegative(t *testing.T) {
	m := Model{Curve: ON, A: -10, B: 1}
	if m.Predict(1) != 0 {
		t.Errorf("negative prediction must clamp to 0, got %v", m.Predict(1))
	}
}

func TestErrors(t *testing.T) {
	if _, err := Fit([]float64{1}, []float64{1}); err == nil {
		t.Error("one point must error")
	}
	if _, err := Fit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths must error")
	}
	if _, err := fitCurves(nil, sampleXs, genYs(ON, 1, 0)); err == nil {
		t.Error("empty curve set must error")
	}
}

func TestFitPreferRestrictsCurves(t *testing.T) {
	// Force a linear-only fit on quadratic data: predictable underestimate.
	m, err := fitCurves([]Curve{ON}, sampleXs, genYs(ON2, 1e9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Curve != ON {
		t.Fatalf("picked %v", m.Curve)
	}
	if m.Predict(1) >= 1e9 {
		t.Errorf("linear fit of quadratic data should under-predict at 1: %g", m.Predict(1))
	}
}

// TestFitInterpolatesProperty: for any generated curve with positive
// coefficients, the fitted model is near-exact on the sample points.
func TestFitInterpolatesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Curves[rng.Intn(len(Curves))]
		a := rng.Float64() * 1e6
		b := rng.Float64() * 100
		ys := genYs(c, a, b)
		m, err := Fit(sampleXs, ys)
		if err != nil {
			return false
		}
		for i, x := range sampleXs {
			if math.Abs(m.Predict(x)-ys[i]) > 1e-6*(math.Abs(ys[i])+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCurveStringAndOrder(t *testing.T) {
	names := map[Curve]string{O1: "O(1)", ON: "O(n)", ONLogN: "O(n log n)", ON2: "O(n^2)", ON3: "O(n^3)"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d: %q", c, c.String())
		}
	}
	// g must be monotone increasing in x for every non-constant curve.
	for _, c := range Curves[1:] {
		if c.g(0.5) <= c.g(0.1) {
			t.Errorf("%v: g not increasing", c)
		}
	}
}
