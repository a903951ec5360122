package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"activego/internal/metrics"
	"activego/internal/platform"
	"activego/internal/trace"
	"activego/internal/workloads"
)

// TestTracingInvariance pins the trace layer's zero-overhead contract the
// way TestResilienceShape pins the fault layer's rate-0 invariant: a run
// with a recorder attached must be bit-identical — same exec.Result,
// same event count — to the same run without one.
func TestTracingInvariance(t *testing.T) {
	spec, ok := workloads.ByName(Fig5TraceWorkload)
	if !ok {
		t.Fatalf("unknown workload %q", Fig5TraceWorkload)
	}
	wb, err := Prepare(spec, testParams())
	if err != nil {
		t.Fatal(err)
	}
	var bareP, tracedP *platform.Platform
	bare, err := wb.RunActivePy(true, func(p *platform.Platform) { bareP = p })
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	traced, err := wb.RunActivePy(true, func(p *platform.Platform) {
		tracedP = p
		p.SetRecorder(rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, traced) {
		t.Errorf("recording perturbed the run:\nbare:   %+v\ntraced: %+v", bare, traced)
	}
	if b, tr := bareP.Sim.EventsFired(), tracedP.Sim.EventsFired(); b != tr {
		t.Errorf("recording changed the event count: %d bare, %d traced", b, tr)
	}
	if len(rec.Spans()) == 0 || len(rec.Counters()) == 0 {
		t.Error("traced run recorded nothing")
	}
}

// TestTraceByteIdentical: same seed, same flags — byte-identical Chrome
// JSON across independent runs.
func TestTraceByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	render := func() []byte {
		r, _, err := Fig5(testParams())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Rec.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("same-seed trace JSON differs across runs")
	}
}

// TestUtilizationCoverage checks Figure 5's recorded reference run
// covers the stack — spans from at least 5 components, at least 4
// counter series, every series catalogued — and that the stressed run
// actually migrates so the timeline has its §III-D instant.
func TestUtilizationCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	r, _, err := Fig5(testParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s\n%s", r.Rec.UtilizationTable(Fig5TraceWorkload), r.MigrationTimeline())

	spanComps := map[string]bool{}
	for _, s := range r.Rec.Spans() {
		spanComps[s.Component] = true
	}
	if len(spanComps) < 5 {
		t.Errorf("spans from %d components, want >= 5: %v", len(spanComps), spanComps)
	}
	if n := len(r.Rec.Counters()); n < 4 {
		t.Errorf("%d counter series, want >= 4", n)
	}
	for _, s := range r.Rec.Counters() {
		if m, ok := metrics.Lookup(s.Name); !ok || m.Kind != metrics.KindSeries {
			t.Errorf("recorded series %q is not a catalogued series", s.Name)
		}
	}

	if !r.Stressed.Migrated {
		t.Error("stressed run did not migrate; the timeline needs the §III-D instant")
	}
	if !strings.Contains(r.MigrationTimeline().String(), "monitor migrates to host") {
		t.Error("migration timeline missing the migration row")
	}
}
