package analysis

import (
	"math"
	"testing"
)

func wantExec(t *testing.T, r *Report, line int, want Interval) {
	t.Helper()
	got, ok := r.absint.execBounds[line]
	if !ok {
		t.Fatalf("line %d: no exec bound", line)
	}
	if got != want {
		t.Errorf("line %d exec bound = %v, want %v", line, got, want)
	}
}

func TestExecBoundNestedLiteralLoops(t *testing.T) {
	r := mustAnalyze(t, `x = 0
for i in range(4):
    for j in range(3):
        x = x + i + j
y = x
`)
	wantExec(t, r, 1, Point(1))
	wantExec(t, r, 2, Point(1))
	wantExec(t, r, 3, Point(4))
	wantExec(t, r, 4, Point(12))
	wantExec(t, r, 5, Point(1))
}

func TestExecBoundConditional(t *testing.T) {
	r := mustAnalyze(t, `t = load("t")
c = vsum(t)
if c > 0:
    x = 1
else:
    x = 2
y = x
`)
	wantExec(t, r, 4, Range(0, 1))
	wantExec(t, r, 6, Range(0, 1))
	wantExec(t, r, 7, Point(1))
}

func TestTripBoundBreakCollapsesLower(t *testing.T) {
	r := mustAnalyze(t, `for i in range(8):
    x = i
    break
y = 1
`)
	// The header runs once, so the body's execution bound is the
	// loop's trip count.
	wantExec(t, r, 2, Range(0, 8))
}

func TestDataSizeLoopIsNotUnbounded(t *testing.T) {
	r := mustAnalyze(t, `t = load("t")
n = vlen(t)
for i in range(n):
    x = n + i
y = 1
`)
	body, ok := r.absint.execBounds[4]
	if !ok {
		t.Fatal("no exec bound for the loop body")
	}
	if !math.IsInf(body.Hi, 1) {
		t.Errorf("data-bounded loop's body should have an infinite static upper bound, got %v", body)
	}
	for _, d := range r.Lint() {
		if d.Code == CodeUnboundedLoop {
			t.Errorf("vlen-bounded loop must not raise AV010: %v", d)
		}
	}
}

func TestComputedBoundIsUnbounded(t *testing.T) {
	r := mustAnalyze(t, `t = load("t")
n = vsum(t)
for i in range(n):
    x = n + i
y = 1
`)
	found := false
	for _, d := range r.Lint() {
		if d.Code == CodeUnboundedLoop && d.Line == 3 && d.Severity == SevWarning {
			found = true
		}
	}
	if !found {
		t.Error("vsum-bounded loop must raise an AV010 warning")
	}
}

func TestStepZeroLoopIsError(t *testing.T) {
	r := mustAnalyze(t, `for i in range(0, 10, 0):
    x = i
y = 1
`)
	found := false
	for _, d := range r.Lint() {
		if d.Code == CodeUnboundedLoop && d.Line == 1 && d.Severity == SevError {
			found = true
		}
	}
	if !found {
		t.Error("zero-step loop must raise an AV010 error")
	}
}

func TestDescendingRangeBound(t *testing.T) {
	r := mustAnalyze(t, `for i in range(10, 0, -2):
    x = i
y = 1
`)
	wantExec(t, r, 2, Point(5)) // the header runs once: five trips
}

// TestWideningStabilizes pins the fixpoint: a loop that grows one of its
// own inputs must still converge (widening pushes the moved bound to
// +Inf) and keep exact bounds for everything structural.
func TestWideningStabilizes(t *testing.T) {
	r := mustAnalyze(t, `n = 1
for i in range(3):
    n = n + 1
x = n
`)
	wantExec(t, r, 3, Point(3))
	for _, d := range r.Lint() {
		if d.Code == CodeUnboundedLoop {
			t.Errorf("literal-bounded loop must not raise AV010: %v", d)
		}
	}
}
