package analysis

import (
	"fmt"
	"strings"
	"testing"

	"activego/internal/lang/parser"
	"activego/internal/plan"
)

// wideProgram builds a program with n offloadable assignment lines (plus
// the load feeding them), all coupled through the one loaded variable —
// a single dependence component of n+1 candidates.
func wideProgram(n int) string {
	var sb strings.Builder
	sb.WriteString(`v = load("x")` + "\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "s%d = vsum(v)\n", i)
	}
	return sb.String()
}

// independentProgram builds n disjoint load→reduce pairs: 2n offloadable
// candidates spread over n two-line dependence components.
func independentProgram(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "v%d = load(\"x%d\")\n", i, i)
		fmt.Fprintf(&sb, "s%d = vsum(v%d)\n", i, i)
	}
	return sb.String()
}

func hasAV008(t *testing.T, src string) (bool, string) {
	t.Helper()
	diags, err := LintSource(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Code == CodeOptimalFallback {
			if d.Severity != SevWarning {
				t.Errorf("AV008 severity = %v, want warning", d.Severity)
			}
			return true, d.Msg
		}
	}
	return false, ""
}

// TestOptimalFallbackLint checks AV008's demoted firing edge: the load
// line is itself offloadable (EffectReadsStorage), so wideProgram(n) is
// one component of n+1 candidates. At plan.BnBExactLines candidates the
// worst-case search still fits the budget and the advisory stays
// silent — even though this is far past Optimal's old 16-line
// enumeration limit, branch-and-bound plans it exactly. One candidate
// further the guarantee breaks and the advisory fires.
func TestOptimalFallbackLint(t *testing.T) {
	if fired, msg := hasAV008(t, wideProgram(plan.BnBExactLines-1)); fired {
		t.Errorf("AV008 fired inside the exactness guarantee: %s", msg)
	}
	fired, msg := hasAV008(t, wideProgram(plan.BnBExactLines))
	if !fired {
		t.Fatalf("AV008 silent with a %d-candidate component", plan.BnBExactLines+1)
	}
	if !strings.Contains(msg, "plan.optimal.fallback") {
		t.Errorf("AV008 message does not name the runtime counter: %q", msg)
	}
	if !strings.Contains(msg, "may fall back") {
		t.Errorf("AV008 message still claims an unconditional fallback: %q", msg)
	}
}

// TestOptimalFallbackComponentAware pins the demotion's point: many
// offloadable lines in *small* components never warn, because the
// planner searches each component independently. 30 disjoint pairs is
// 60 candidates — nearly four times the old 16-line cliff — and still
// exactly plannable.
func TestOptimalFallbackComponentAware(t *testing.T) {
	if fired, msg := hasAV008(t, independentProgram(30)); fired {
		t.Errorf("AV008 fired on 30 independent two-line components: %s", msg)
	}
}

// TestOffloadComponents pins the decomposition AV008 hands the planner on
// both shapes: wideProgram(5) is one component of 6 free lines
// (2^7−2 = 126 worst-case nodes), independentProgram(4) is four
// components of 2 (4 × (2^3−2) = 24).
func TestOffloadComponents(t *testing.T) {
	analyzeSrc := func(src string) *Report {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if worst, biggest := analyzeSrc(wideProgram(5)).searchSize(); worst != 126 || biggest != 6 {
		t.Fatalf("wideProgram(5) searchSize = (%d, %d), want (126, 6): one component of 6", worst, biggest)
	}
	if worst, biggest := analyzeSrc(independentProgram(4)).searchSize(); worst != 24 || biggest != 2 {
		t.Fatalf("independentProgram(4) searchSize = (%d, %d), want (24, 2): four components of 2", worst, biggest)
	}
}
