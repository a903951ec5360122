package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"activego/internal/metrics"
)

// fill records a small fixed timeline: two overlapping CSE spans, one
// NVMe span, an instant, and a counter with a coalescible sample.
func fill(r *Recorder) {
	r.Span("cse", "compute", "job", 0.0, 2.0)
	r.Span("cse", "compute", "job", 1.0, 3.0)
	r.Span("nvme", "nvme", "read", 0.5, 1.5, Arg{Key: "status", Value: 0})
	r.Instant("exec", "exec", "migrate", 2.5)
	r.Sample(metrics.SeriesCSEBusyCores, 0.0, 1)
	r.Sample(metrics.SeriesCSEBusyCores, 1.0, 2)
	r.Sample(metrics.SeriesCSEBusyCores, 1.5, 2) // coalesced
	r.Sample(metrics.SeriesCSEBusyCores, 3.0, 0)
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Span("a", "b", "c", 0, 1)
	r.Instant("a", "b", "c", 0)
	r.Sample("x", 0, 1)
	if r.Spans() != nil || r.Instants() != nil || r.Counters() != nil {
		t.Error("nil recorder accessors must return nil")
	}
	if _, _, ok := r.Window(); ok {
		t.Error("nil recorder window must be empty")
	}
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil recorder must still write valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("nil recorder wrote %d events", len(doc.TraceEvents))
	}
}

func TestSampleCoalescing(t *testing.T) {
	r := New()
	fill(r)
	ctrs := r.Counters()
	if len(ctrs) != 1 {
		t.Fatalf("%d series", len(ctrs))
	}
	if got := len(ctrs[0].Samples); got != 3 {
		t.Errorf("consecutive equal values must coalesce: %d samples, want 3", got)
	}
	if got := ctrs[0].Component; got != "cse" {
		t.Errorf("series lane %q, want its name's first segment \"cse\"", got)
	}
}

func TestComponentStatsMergeOverlap(t *testing.T) {
	r := New()
	fill(r)
	stats := r.ComponentStats()
	byComp := map[string]ComponentStat{}
	for _, s := range stats {
		byComp[s.Component] = s
	}
	// Two cse spans [0,2] and [1,3] overlap: busy time is 3, not 4.
	if got := byComp["cse"].Busy; got != 3.0 {
		t.Errorf("cse busy %v, want 3 (overlap merged)", got)
	}
	// Window is [0, 3]; cse is busy the whole of it.
	if got := byComp["cse"].Utilization; got != 1.0 {
		t.Errorf("cse utilization %v, want 1", got)
	}
	if got := byComp["nvme"].Busy; got != 1.0 {
		t.Errorf("nvme busy %v, want 1", got)
	}
	// First-seen component order.
	if stats[0].Component != "cse" || stats[1].Component != "nvme" {
		t.Errorf("component order %v", []string{stats[0].Component, stats[1].Component})
	}
}

func TestSeriesStatsTimeWeighted(t *testing.T) {
	r := New()
	fill(r)
	st := r.SeriesStats()[0]
	if st.Min != 0 || st.Max != 2 {
		t.Errorf("min/max %v/%v", st.Min, st.Max)
	}
	// Step integral over [0,3]: 1*1 + 2*2 + 0*0 = 5, window 3.
	want := 5.0 / 3.0
	if diff := st.Mean - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("mean %v, want %v", st.Mean, want)
	}
}

func TestWriteChromeDeterministicAndValid(t *testing.T) {
	render := func() []byte {
		r := New()
		fill(r)
		var buf bytes.Buffer
		if err := r.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("same recording must serialize to identical bytes")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, a)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	var spans, instants, counters, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Name == "job" && e.Dur != 2e6 {
				t.Errorf("span dur %v us", e.Dur)
			}
		case "i":
			instants++
		case "C":
			counters++
		case "M":
			meta++
		}
	}
	if spans != 3 || instants != 1 || counters != 3 {
		t.Errorf("events: %d spans, %d instants, %d counter samples", spans, instants, counters)
	}
	if meta != 6 { // 3 components x (process_name + process_sort_index)
		t.Errorf("%d metadata events", meta)
	}
}

func TestOccupancyWindows(t *testing.T) {
	r := New()
	fill(r)
	// Window is [0, 3]: cse busy [0,3] (merged), nvme busy [0.5,1.5],
	// exec has an instant but no spans.
	wins := r.OccupancyWindows(3)
	if len(wins) != 3 {
		t.Fatalf("%d windows, want 3", len(wins))
	}
	comps := r.compOrder
	idx := make(map[string]int, len(comps))
	for i, c := range comps {
		idx[c] = i
	}
	wantCSE := []float64{1, 1, 1}
	wantNVMe := []float64{0.5, 0.5, 0}
	for w, ow := range wins {
		if got := ow.End - ow.Start; got < 0.999 || got > 1.001 {
			t.Errorf("window %d width %v, want 1", w, got)
		}
		if got := ow.Utilization[idx["cse"]]; got != wantCSE[w] {
			t.Errorf("window %d cse util %v, want %v", w, got, wantCSE[w])
		}
		if got := ow.Utilization[idx["nvme"]]; got != wantNVMe[w] {
			t.Errorf("window %d nvme util %v, want %v", w, got, wantNVMe[w])
		}
		if got := ow.Utilization[idx["exec"]]; got != 0 {
			t.Errorf("window %d exec util %v, want 0 (no spans)", w, got)
		}
	}
	if (*Recorder)(nil).OccupancyWindows(4) != nil {
		t.Error("nil recorder occupancy windows must be nil")
	}
	if New().OccupancyWindows(4) != nil {
		t.Error("empty recorder occupancy windows must be nil")
	}
	if r.OccupancyWindows(0) != nil {
		t.Error("zero bins must yield nil")
	}
}

func TestSummaryRendersAllSections(t *testing.T) {
	r := New()
	fill(r)
	s := r.Summary()
	for _, want := range []string{
		"trace window",
		"Per-component timeline occupancy",
		"Occupancy over time",
		"Span latency by class",
		"Counter series",
		metrics.SeriesCSEBusyCores,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if (&Recorder{}).Summary() == "" {
		t.Error("empty recorder summary must still return text")
	}
}

// TestRecorderFold folds a hand-built recording and checks the three
// derived gauges and the span latency histogram.
func TestRecorderFold(t *testing.T) {
	rec := New()
	rec.Span("cse", "sim", "job", 0, 1)
	rec.Span("cse", "sim", "job", 1, 3)
	rec.Sample(metrics.SeriesCSEBusyCores, 0, 1)
	rec.Sample(metrics.SeriesCSEBusyCores, 2, 3)

	r := metrics.New()
	rec.Fold(r)

	if v := r.Gauge(metrics.SeriesCSEBusyCores + metrics.TraceMax).Value(); v != 3 {
		t.Errorf("max gauge %v, want 3", v)
	}
	if v := r.Gauge(metrics.SeriesCSEBusyCores + metrics.TraceMin).Value(); v != 1 {
		t.Errorf("min gauge %v, want 1", v)
	}
	// Step semantics over window [0,3]: value 1 for 2s, 3 for 1s.
	if v := r.Gauge(metrics.SeriesCSEBusyCores + metrics.TraceMean).Value(); math.Abs(v-5.0/3) > 1e-12 {
		t.Errorf("mean gauge %v, want 5/3", v)
	}
	h := r.Histogram(metrics.SpanPrefix + "cse" + metrics.SpanSuffix)
	if h.Count() != 2 || h.Sum() != 3 {
		t.Errorf("span histogram count=%d sum=%v, want 2/3", h.Count(), h.Sum())
	}
	for _, g := range r.Snapshot().Gauges {
		if !metrics.Catalogued(g.Name) {
			t.Errorf("folded gauge %q is not catalogued", g.Name)
		}
	}

	// Either side nil is a no-op.
	var nilRec *Recorder
	nilRec.Fold(r)
	rec.Fold(nil)
}
