package experiments

import (
	"reflect"
	"testing"

	"activego/internal/metrics"
	"activego/internal/platform"
	"activego/internal/workloads"
)

// TestMetricsInvariance extends TestTracingInvariance's contract to the
// metrics registry: a run instrumented with WithMetrics must be
// bit-identical — same exec.Result, same event count — to the bare run,
// while the registry actually fills up. Metrics read wall clocks and
// completed results, never the simulation.
func TestMetricsInvariance(t *testing.T) {
	spec, ok := workloads.ByName(Fig5TraceWorkload)
	if !ok {
		t.Fatalf("unknown workload %q", Fig5TraceWorkload)
	}
	bareWb, err := Prepare(spec, testParams())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	instWb, err := Prepare(spec, testParams(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	var bareP, instP *platform.Platform
	bare, err := bareWb.RunActivePy(true, func(p *platform.Platform) { bareP = p })
	if err != nil {
		t.Fatal(err)
	}
	inst, err := instWb.RunActivePy(true, func(p *platform.Platform) { instP = p })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, inst) {
		t.Errorf("metrics perturbed the run:\nbare:         %+v\ninstrumented: %+v", bare, inst)
	}
	if b, in := bareP.Sim.EventsFired(), instP.Sim.EventsFired(); b != in {
		t.Errorf("metrics changed the event count: %d bare, %d instrumented", b, in)
	}

	snap := reg.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Gauges) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("instrumented run recorded too little: %d counters, %d gauges, %d histograms",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
	}
	// Every recorded name must be in the metric catalogue — the docs
	// tests cross-check the catalogue against DESIGN.md §10, so an
	// uncatalogued name is an undocumented metric.
	for _, s := range snap.Counters {
		if !metrics.Catalogued(s.Name) {
			t.Errorf("counter %q missing from the metric catalogue", s.Name)
		}
	}
	for _, s := range snap.Gauges {
		if !metrics.Catalogued(s.Name) {
			t.Errorf("gauge %q missing from the metric catalogue", s.Name)
		}
	}
	for _, h := range snap.Histograms {
		if !metrics.Catalogued(h.Name) {
			t.Errorf("histogram %q missing from the metric catalogue", h.Name)
		}
	}
	if reg.Counter(metrics.MetricExecRuns).Value() != 1 {
		t.Errorf("exec.runs = %g, want 1", reg.Counter(metrics.MetricExecRuns).Value())
	}
	if reg.Histogram(metrics.PhaseSample).Count() == 0 {
		t.Error("sampling phase timer never fired")
	}
}

// TestManifestBuilders pins the structural contract of the Bench
// converters: direction-tagged simulated values per workload, and the
// planner's offload set on the experiments that have one.
func TestManifestBuilders(t *testing.T) {
	fig4 := &Fig4Result{
		Rows: []Fig4Row{{
			Workload: "tpch-6", BaselineTime: 0.01, StaticSpeedup: 1.3,
			ActivePySpeedup: 1.25, PlanMatches: true, GapPercent: 3.8,
			PlanLines: []int{2, 3}, Planner: "bnb",
		}},
		MeanStatic: 1.3, MeanActivePy: 1.25, Matches: 1,
	}
	m := fig4.Bench(testParams())
	if m.Experiment != "fig4" || m.Seed != testParams().Seed || m.ScaleDiv != testParams().ScaleDiv {
		t.Errorf("manifest header: %+v", m)
	}
	if len(m.Workloads) != 2 { // tpch-6 + MEAN
		t.Fatalf("%d workloads", len(m.Workloads))
	}
	w := m.Workloads[0]
	if !reflect.DeepEqual(w.PlanLines, []int{2, 3}) || w.Planner != "bnb" {
		t.Errorf("planner choices not recorded: %+v", w)
	}
	tracked := 0
	for _, v := range w.Values {
		if v.Better != "" {
			tracked++
		}
	}
	if tracked < 3 {
		t.Errorf("fig4 workload tracks %d values, want >= 3 (baseline + both speedups)", tracked)
	}

	res := &ResilienceResult{Rows: []ResilienceRow{
		{Workload: "tpch-6", Rate: 0, BreakerDur: 0.01, Completed: true},
		{Workload: "tpch-6", Rate: 0.5, BreakerDur: 0.012, Completed: true},
		{Workload: "tpch-6", Steady: true, Rate: 0.1, BreakerDur: 0.013, Completed: true},
	}}
	rm := res.Bench(testParams())
	if len(rm.Workloads) != 1 {
		t.Fatalf("resilience workloads: %d", len(rm.Workloads))
	}
	names := map[string]string{}
	for _, v := range rm.Workloads[0].Values {
		names[v.Name] = v.Better
	}
	for _, at := range []string{"@0.00", "@0.50", "@steady0.10"} {
		if names["breaker.seconds"+at] == "" || names["completed"+at] == "" {
			t.Errorf("resilience tracked values missing at %s: %v", at, names)
		}
	}
	if len(names) != len(rm.Workloads[0].Values) {
		t.Errorf("resilience cell names collide: %d distinct of %d values", len(names), len(rm.Workloads[0].Values))
	}
}
