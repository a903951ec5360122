// Package fit implements the sampling-phase extrapolation of §III-A: from
// four scaled sample runs (scale factors 2^-10 … 2^-7), predict each
// per-line metric at full scale by selecting the closest fit among five
// complexity curves — O(1), O(n), O(n log n), O(n²), O(n³) — exactly the
// candidate set the paper uses.
//
// Fits are least squares of y = a·g(x) + b over the sample points; the
// curve with the smallest residual wins, with a mild preference for
// simpler curves on near-ties (the sample x-range spans only 8x, so
// higher-order curves can overfit noise-free but slightly non-polynomial
// data). The extrapolation from x = 2^-7 to x = 1 is a 128x jump: when a
// metric is genuinely data-dependent (CSR sparsity), the prediction error
// the paper reports emerges here on its own.
package fit

import (
	"fmt"
	"math"
)

// Curve identifies one of the five candidate complexity classes.
type Curve int

// Candidate curves.
const (
	O1 Curve = iota
	ON
	ONLogN
	ON2
	ON3
)

func (c Curve) String() string {
	switch c {
	case O1:
		return "O(1)"
	case ON:
		return "O(n)"
	case ONLogN:
		return "O(n log n)"
	case ON2:
		return "O(n^2)"
	case ON3:
		return "O(n^3)"
	}
	return fmt.Sprintf("curve(%d)", int(c))
}

// Curves lists all candidates in order.
var Curves = []Curve{O1, ON, ONLogN, ON2, ON3}

// g evaluates the curve's basis function. The log is offset so g stays
// positive and monotone for the sub-unity x values the sampler produces.
func (c Curve) g(x float64) float64 {
	switch c {
	case O1:
		return 1
	case ON:
		return x
	case ONLogN:
		return x * math.Log2(1+x*1024)
	case ON2:
		return x * x
	case ON3:
		return x * x * x
	}
	panic("fit: unknown curve")
}

// Model is a fitted curve y ≈ A·g(x) + B.
type Model struct {
	Curve Curve
	A, B  float64
	RMSE  float64 // root-mean-square residual over the sample points
}

// Predict evaluates the model at x, clamped at zero (negative workloads
// or byte counts are meaningless).
func (m Model) Predict(x float64) float64 {
	y := m.A*m.Curve.g(x) + m.B
	if y < 0 {
		return 0
	}
	return y
}

func (m Model) String() string {
	return fmt.Sprintf("%v: %.6g*g + %.6g (rmse %.3g)", m.Curve, m.A, m.B, m.RMSE)
}

// simplicityMargin is the relative RMSE advantage a more complex curve
// must show to displace a simpler one.
const simplicityMargin = 0.98

// Fit selects the best of the five curves for the sample points (xs, ys).
// It needs at least two points; the paper's sampler provides four.
func Fit(xs, ys []float64) (Model, error) {
	if len(xs) != len(ys) {
		return Model{}, fmt.Errorf("fit: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Model{}, fmt.Errorf("fit: need at least 2 points, got %d", len(xs))
	}
	return fitCurves(Curves, xs, ys)
}

// fitCurves selects the best of curves, in order of simplicity, for the
// sample points.
func fitCurves(curves []Curve, xs, ys []float64) (Model, error) {
	best := Model{RMSE: math.Inf(1)}
	haveBest := false
	for _, c := range curves {
		a, b, ok := leastSquares(c, xs, ys)
		if !ok {
			continue
		}
		m := Model{Curve: c, A: a, B: b}
		m.RMSE = rmse(m, xs, ys)
		if !haveBest || m.RMSE < best.RMSE*simplicityMargin {
			best = m
			haveBest = true
		}
	}
	if !haveBest {
		return Model{}, fmt.Errorf("fit: no curve fitted")
	}
	return best, nil
}

// leastSquares solves y = a·g(x) + b. For O1 the slope is zero and b is
// the mean. Returns ok=false on degenerate systems.
func leastSquares(c Curve, xs, ys []float64) (a, b float64, ok bool) {
	n := float64(len(xs))
	if c == O1 {
		var sum float64
		for _, y := range ys {
			sum += y
		}
		return 0, sum / n, true
	}
	var sg, sy, sgg, sgy float64
	for i := range xs {
		g := c.g(xs[i])
		sg += g
		sy += ys[i]
		sgg += g * g
		sgy += g * ys[i]
	}
	det := n*sgg - sg*sg
	if math.Abs(det) < 1e-30 {
		return 0, 0, false
	}
	a = (n*sgy - sg*sy) / det
	b = (sy - a*sg) / n
	return a, b, true
}

func rmse(m Model, xs, ys []float64) float64 {
	var sse float64
	for i := range xs {
		d := m.A*m.Curve.g(xs[i]) + m.B - ys[i]
		sse += d * d
	}
	return math.Sqrt(sse / float64(len(xs)))
}
