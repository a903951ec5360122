package core_test

import (
	"fmt"
	"strings"
	"testing"

	"activego/internal/core"
	"activego/internal/inputs"
	"activego/internal/metrics"
	"activego/internal/plan"
	"activego/internal/workloads"
)

// planOf prepares src over reg on rt and returns its plan.
func planOf(rt *core.Runtime, src string, reg *inputs.Registry) (*plan.Result, error) {
	pr, err := rt.Prepare(&workloads.Instance{Source: src, Registry: reg})
	if err != nil {
		return nil, err
	}
	return pr.Plan, nil
}

// wideScan builds a program of n coupled reduction lines over one loaded
// vector — a single variable-sharing component of n+1 offload candidates.
func wideScan(n int) string {
	var sb strings.Builder
	sb.WriteString(`v = load("sensors")` + "\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "s%d = vsum(v)\n", i)
	}
	return sb.String()
}

// TestOptimalFallbackCounter pins the fallback record: branch-and-bound
// plans an 18-line coupled scan exactly, so plan.optimal.fallback stays
// zero and the plan.bnb.* statistics appear. Only a genuine node-budget
// blowout (forced here with PlanBudget=1) degrades to Algorithm 1 and
// bumps the counter.
func TestOptimalFallbackCounter(t *testing.T) {
	src := wideScan(17)

	reg := scanRegistry(1 << 14)
	rt := newRuntime()
	rt.Metrics = metrics.New()
	rt.PreloadInputs(reg)
	planRes, err := planOf(rt, src, reg)
	if err != nil {
		t.Fatal(err)
	}
	if planRes.Planner != plan.PlannerBnB {
		t.Errorf("planner = %q, want %q", planRes.Planner, plan.PlannerBnB)
	}
	if got := rt.Metrics.Counter(metrics.MetricPlanOptimalFallback).Value(); got != 0 {
		t.Errorf("%s = %g on an exactly-planned branch-and-bound run, want 0", metrics.MetricPlanOptimalFallback, got)
	}
	if got := rt.Metrics.Counter(metrics.MetricPlanBnBNodes).Value(); got <= 0 {
		t.Errorf("%s = %g after a branch-and-bound run, want > 0", metrics.MetricPlanBnBNodes, got)
	}
	if got := rt.Metrics.Gauge(metrics.MetricPlanBnBBudget).Value(); got != plan.DefaultBnBNodeBudget {
		t.Errorf("%s = %g, want %d", metrics.MetricPlanBnBBudget, got, plan.DefaultBnBNodeBudget)
	}

	// A one-node budget cannot finish any search: genuine fallback.
	starved := newRuntime()
	starved.Metrics = metrics.New()
	starvedReg := scanRegistry(1 << 14)
	starved.PreloadInputs(starvedReg)
	starved.PlanBudget = 1
	planRes, err = planOf(starved, src, starvedReg)
	if err != nil {
		t.Fatal(err)
	}
	if planRes.Planner != plan.PlannerAlgorithm1 {
		t.Errorf("starved planner = %q, want %q", planRes.Planner, plan.PlannerAlgorithm1)
	}
	if got := starved.Metrics.Counter(metrics.MetricPlanOptimalFallback).Value(); got != 1 {
		t.Errorf("%s = %g after one genuinely degraded run, want 1", metrics.MetricPlanOptimalFallback, got)
	}

	small := newRuntime()
	small.Metrics = metrics.New()
	smallReg := scanRegistry(1 << 14)
	small.PreloadInputs(smallReg)
	if _, err := planOf(small, scanProgram, smallReg); err != nil {
		t.Fatal(err)
	}
	if got := small.Metrics.Counter(metrics.MetricPlanOptimalFallback).Value(); got != 0 {
		t.Errorf("%s = %g on an exactly-planned run, want 0", metrics.MetricPlanOptimalFallback, got)
	}
}

// TestPlannerRequestedGreedy pins that asking for Algorithm 1 is not a
// fallback: the counter stays zero even though the result is greedy.
func TestPlannerRequestedGreedy(t *testing.T) {
	rt := newRuntime()
	rt.Metrics = metrics.New()
	rt.Planner = plan.PlannerAlgorithm1
	reg := scanRegistry(1 << 14)
	rt.PreloadInputs(reg)
	planRes, err := planOf(rt, scanProgram, reg)
	if err != nil {
		t.Fatal(err)
	}
	if planRes.Planner != plan.PlannerAlgorithm1 {
		t.Errorf("planner = %q, want %q", planRes.Planner, plan.PlannerAlgorithm1)
	}
	if got := rt.Metrics.Counter(metrics.MetricPlanOptimalFallback).Value(); got != 0 {
		t.Errorf("%s = %g for an explicitly greedy run, want 0", metrics.MetricPlanOptimalFallback, got)
	}
}

// TestPlannerUnknown pins the error for a planner outside the
// vocabulary — including the retired enumeration choices — and that it
// lists the three remaining ones.
func TestPlannerUnknown(t *testing.T) {
	for _, name := range []string{"simulated-annealing", "auto", "optimal"} {
		rt := newRuntime()
		rt.Planner = name
		reg := scanRegistry(1 << 14)
		rt.PreloadInputs(reg)
		_, err := planOf(rt, scanProgram, reg)
		if err == nil {
			t.Fatalf("no error for planner %q", name)
		}
		if !strings.Contains(err.Error(), "unknown planner") {
			t.Errorf("planner %q: error = %v, want mention of the unknown planner", name, err)
		}
		if want := "(choices: bnb | algorithm1 | algorithm1-literal)"; !strings.Contains(err.Error(), want) {
			t.Errorf("planner %q: error = %v, want it to list %s", name, err, want)
		}
	}
}
