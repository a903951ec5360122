package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
)

// TestNilRegistryIsInert: every method on a nil registry and on the nil
// instruments it hands out must be a safe no-op — the zero-overhead
// contract's API half.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(1)
	r.Gauge("g").Set(2)
	r.Histogram("h").Observe(3)
	r.Phase("phase.parse.seconds")()
	if v := r.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter value %v", v)
	}
	if v := r.Gauge("g").Value(); v != 0 {
		t.Errorf("nil gauge value %v", v)
	}
	if n := r.Histogram("h").Count(); n != 0 {
		t.Errorf("nil histogram count %v", n)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil snapshot not empty: %+v", s)
	}
}

func TestCounterGauge(t *testing.T) {
	r := New()
	r.Counter("x").Add(2)
	r.Counter("x").Add(3)
	if v := r.Counter("x").Value(); v != 5 {
		t.Errorf("counter %v, want 5", v)
	}
	r.Gauge("y").Set(7)
	r.Gauge("y").Set(1.5)
	if v := r.Gauge("y").Value(); v != 1.5 {
		t.Errorf("gauge %v, want 1.5", v)
	}
}

// TestHistogramBuckets pins the log-2 bucket layout: a value lands in
// the smallest bucket whose upper bound is >= it, non-positive values in
// the underflow bucket.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v  float64
		ub float64
	}{
		{1e-9, math.Pow(2, -29)},
		{0.5, 0.5},
		{0.75, 1},
		{1, 1},
		{1.5, 2},
		{1024, 1024},
		{-3, 0},
		{0, 0},
	}
	for _, c := range cases {
		if got := upperBound(bucketOf(c.v)); got != c.ub {
			t.Errorf("bucketOf(%v): upper bound %v, want %v", c.v, got, c.ub)
		}
	}
}

// TestHistogramStatsAndQuantiles feeds 1..100 to a histogram and to
// Quantile: the histogram's count, sum, and extremes are exact, and so
// is every quantile, with no bucket rounding.
func TestHistogramStatsAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	var vals []float64
	for i := 100; i >= 1; i-- {
		h.Observe(float64(i))
		vals = append(vals, float64(i))
	}
	if h.Count() != 100 {
		t.Errorf("count %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Errorf("sum %v", h.Sum())
	}
	if s := r.Snapshot().Histograms[0]; s.Min != 1 || s.Max != 100 {
		t.Errorf("extremes %v..%v, want exact 1..100", s.Min, s.Max)
	}
	sort.Float64s(vals)
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100},
	} {
		if got := Quantile(vals, c.q); got != c.want {
			t.Errorf("Quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestSnapshotDeterministic: snapshots sort by name and marshal to
// identical JSON regardless of registration order.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(names []string) []byte {
		r := New()
		for i, n := range names {
			r.Counter("ctr." + n).Add(float64(i + 1))
			r.Gauge("g." + n).Set(float64(i))
			r.Histogram("h." + n).Observe(float64(i + 1))
		}
		// Same totals regardless of order: make values order-independent.
		var buf bytes.Buffer
		snap := r.Snapshot()
		// zero the order-dependent values, keeping only names/structure
		for i := range snap.Counters {
			snap.Counters[i].Value = 0
		}
		for i := range snap.Gauges {
			snap.Gauges[i].Value = 0
		}
		for i := range snap.Histograms {
			snap.Histograms[i].Sum, snap.Histograms[i].Min, snap.Histograms[i].Max = 0, 0, 0
			snap.Histograms[i].Buckets = nil
		}
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := build([]string{"a", "b", "c"})
	b := build([]string{"c", "a", "b"})
	if !bytes.Equal(a, b) {
		t.Errorf("snapshot order-dependent:\n%s\nvs\n%s", a, b)
	}
}

func TestSnapshotRoundTripsJSON(t *testing.T) {
	r := New()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(-1)
	r.Histogram("h").Observe(0.25)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r.Snapshot()) {
		t.Errorf("round trip mismatch:\n%+v\nvs\n%+v", got, r.Snapshot())
	}
}

// TestCatalogued pins the namespace: every row is complete, unique,
// and found by Lookup; series-derived gauges and span histograms are
// catalogued; junk, and the derived suffixes on non-series names, are
// not.
func TestCatalogued(t *testing.T) {
	seen := map[string]bool{}
	series := 0
	for _, m := range Catalogue() {
		if m.Name == "" || m.Unit == "" || m.Source == "" {
			t.Errorf("incomplete catalogue entry %+v", m)
		}
		if seen[m.Name] {
			t.Errorf("duplicate catalogue entry %q", m.Name)
		}
		seen[m.Name] = true
		if !Catalogued(m.Name) {
			t.Errorf("catalogue entry %q not Catalogued", m.Name)
		}
		if got, ok := Lookup(m.Name); !ok || got != m {
			t.Errorf("Lookup(%q) = %+v, %v", m.Name, got, ok)
		}
		switch m.Kind {
		case KindCounter, KindGauge, KindHistogram:
		case KindSeries:
			series++
			for _, suf := range []string{TraceMin, TraceMean, TraceMax} {
				if !Catalogued(m.Name + suf) {
					t.Errorf("series gauge %q not Catalogued", m.Name+suf)
				}
			}
		default:
			t.Errorf("%q: unknown kind %q", m.Name, m.Kind)
		}
	}
	if series != 16 {
		t.Errorf("%d series rows, want 16", series)
	}
	for _, name := range []string{"span.cse.seconds", "span.exec.seconds", "span.d2h.seconds"} {
		if !Catalogued(name) {
			t.Errorf("span histogram %q not Catalogued", name)
		}
	}
	for _, name := range []string{"bogus", "span..seconds", "span.a.b.seconds", "nvme.sq.depth.median",
		MetricExecRuns + TraceMax} {
		if Catalogued(name) {
			t.Errorf("%q should not be Catalogued", name)
		}
	}
	if _, ok := Lookup("no.such.series"); ok {
		t.Error("Lookup must reject unknown names")
	}
}

func TestPhaseTimer(t *testing.T) {
	r := New()
	stop := r.Phase(PhaseParse)
	stop()
	h := r.Histogram(PhaseParse)
	if h.Count() != 1 {
		t.Errorf("phase observations %d, want 1", h.Count())
	}
	if h.Sum() < 0 {
		t.Errorf("negative phase duration %v", h.Sum())
	}
}
