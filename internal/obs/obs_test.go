package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"activego/internal/analysis"
	"activego/internal/metrics"
	"activego/internal/plan"
)

func TestNilIsInert(t *testing.T) {
	var w *Windows
	w.Observe("x", 0, 1)
	if w.Count() != 0 || w.Names() != nil || w.Stats("x") != nil {
		t.Error("nil Windows accessors must be zero-valued")
	}
	w.Fold(metrics.New()) // must not panic

	var c *Collector
	c.Attempt(0, Attempt{Line: 1, OnCSD: true, Done: true, Seconds: 1, Picked: true, Queue: 1, D2HBytes: 2, Retried: true})
	if c.Windows() != nil {
		t.Error("nil Collector.Windows must be nil")
	}

	var r *DriftReport
	if r.ByLine() != nil || r.StaleLines() != nil || r.Advisories() != nil {
		t.Error("nil DriftReport accessors must be nil")
	}
	r.Fold(metrics.New())

	if NewWindows(0, 0) != nil || NewCollector(-1, 0) != nil {
		t.Error("non-positive interval must construct the nil inert state")
	}
}

func TestWindowsObserveAndStats(t *testing.T) {
	w := NewWindows(1.0, 0)
	// Window 0: three values; window 2: one value; window 1 never opens.
	w.Observe("lat", 0.1, 3)
	w.Observe("lat", 0.5, 1)
	w.Observe("lat", 0.9, 2)
	w.Observe("lat", 2.5, 10)
	if got := w.Count(); got != 3 {
		t.Errorf("Count = %d, want 3 (highest index 2)", got)
	}
	stats := w.Stats("lat")
	if len(stats) != 2 {
		t.Fatalf("%d window cells, want 2 (empty windows are not materialized)", len(stats))
	}
	w0 := stats[0]
	if w0.Window != 0 || w0.Count != 3 || w0.Sum != 6 || w0.Mean != 2 {
		t.Errorf("window 0 stat %+v", w0)
	}
	// Nearest-rank over sorted [1 2 3]: p50 = rank 2 = 2, p95/p99 = rank 3 = 3.
	if w0.P50 != 2 || w0.P95 != 3 || w0.P99 != 3 {
		t.Errorf("window 0 quantiles p50=%v p95=%v p99=%v", w0.P50, w0.P95, w0.P99)
	}
	if stats[1].Window != 2 || stats[1].Count != 1 || stats[1].P50 != 10 {
		t.Errorf("window 2 stat %+v", stats[1])
	}
	// Negative timestamps clamp to window 0 instead of going out of range.
	w.Observe("neg", -3, 7)
	if s := w.Stats("neg"); len(s) != 1 || s[0].Window != 0 {
		t.Errorf("negative time must clamp to window 0: %+v", s)
	}
	if got := w.Names(); !reflect.DeepEqual(got, []string{"lat", "neg"}) {
		t.Errorf("Names = %v", got)
	}
}

func TestWindowsRingEviction(t *testing.T) {
	w := NewWindows(1.0, 2)
	w.Observe("s", 0.5, 1)
	w.Observe("s", 1.5, 2)
	w.Observe("s", 2.5, 3)
	stats := w.Stats("s")
	if len(stats) != 2 || stats[0].Window != 1 || stats[1].Window != 2 {
		t.Errorf("ring must keep the newest 2 windows: %+v", stats)
	}
	if w.Count() != 3 {
		t.Errorf("Count tracks the highest index even after eviction: %d", w.Count())
	}
}

func TestFoldNamesAreCatalogued(t *testing.T) {
	w := NewWindows(0.5, 0)
	w.Observe("line3.csd.seconds", 0.1, 2e-6)
	w.Observe("line3.csd.seconds", 0.7, 3e-6)
	w.Observe("t0.latency.seconds", 0.2, 1e-3)
	reg := metrics.New()
	w.Fold(reg)
	snap := reg.Snapshot()
	if len(snap.Gauges) == 0 {
		t.Fatal("fold produced no gauges")
	}
	seen := map[string]float64{}
	for _, g := range snap.Gauges {
		if !metrics.Catalogued(g.Name) {
			t.Errorf("folded gauge %q is not catalogued", g.Name)
		}
		seen[g.Name] = g.Value
	}
	// Zero-padded window index, sorted-series fold.
	if v, ok := seen["obs.win.0000.line3.csd.seconds.count"]; !ok || v != 1 {
		t.Errorf("obs.win.0000.line3.csd.seconds.count = %v (present %v)", v, ok)
	}
	if v, ok := seen["obs.win.0001.line3.csd.seconds.p99"]; !ok || v != 3e-6 {
		t.Errorf("obs.win.0001.line3.csd.seconds.p99 = %v (present %v)", v, ok)
	}
	if v := seen[metrics.MetricObsWindows]; v != 2 {
		t.Errorf("%s = %v, want 2", metrics.MetricObsWindows, v)
	}
}

func TestFoldDeterminism(t *testing.T) {
	build := func() *Windows {
		w := NewWindows(0.25, 0)
		for i := 0; i < 40; i++ {
			tm := float64(i) * 0.1
			w.Observe("a.seconds", tm, float64(i%7))
			if i%3 == 0 {
				w.Observe("b.bytes", tm, float64(i*512))
			}
		}
		return w
	}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		reg := metrics.New()
		build().Fold(reg)
		if err := reg.Snapshot().WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Error("identical observations must fold to byte-identical snapshots")
	}
}

func TestCollectorSeries(t *testing.T) {
	c := NewCollector(1.0, 0)
	c.Attempt(0.2, Attempt{Line: 4, OnCSD: true, Done: true, Seconds: 3e-5, Picked: true, Queue: 2e-6, D2HBytes: 4096})
	c.Attempt(0.3, Attempt{Line: 9, Done: true, Seconds: 1e-6})
	c.Attempt(0.4, Attempt{Line: 4, OnCSD: true, Done: true, Seconds: 5e-5}) // zero D2H must not open a bytes cell
	// Failed attempts observe no seconds: one the device picked up and
	// whose call put bytes on the link, re-posted, and one lost before
	// pickup, re-posted too.
	c.Attempt(0.5, Attempt{Line: 4, OnCSD: true, Seconds: 9, Picked: true, Queue: 1e-6, D2HBytes: 64, Retried: true})
	c.Attempt(0.6, Attempt{Line: 4, OnCSD: true, Seconds: 9, Retried: true})
	c.Attempt(0.7, Attempt{Line: 2, Seconds: 9}) // a failed host attempt that moved nothing
	want := []string{"line4.csd.seconds", "line4.d2h.bytes", "line4.queue.seconds", "line4.retries", "line9.host.seconds"}
	if got := c.Windows().Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("series = %v, want %v", got, want)
	}
	for _, tc := range []struct {
		series string
		count  int
		sum    float64
	}{
		{"line4.csd.seconds", 2, 8e-5},
		{"line4.d2h.bytes", 2, 4160},
		{"line4.queue.seconds", 2, 3e-6},
		{"line4.retries", 2, 2},
		{"line9.host.seconds", 1, 1e-6},
	} {
		s := c.Windows().Stats(tc.series)
		if len(s) != 1 || s[0].Count != tc.count || s[0].Sum != tc.sum {
			t.Errorf("%s: %+v, want one window of %d values summing to %v", tc.series, s, tc.count, tc.sum)
		}
	}
}

// TestCollectorHandlesMatchByName feeds one seeded stream of attempts
// through the Collector hook and, spelled out by name, through
// Windows.Observe: the two window sets must fold to the same snapshot.
// The collector's windows are read mid-stream too, so later values land
// in windows Stats has already sorted in place.
func TestCollectorHandlesMatchByName(t *testing.T) {
	c := NewCollector(0.25, 0)
	w := NewWindows(0.25, 0)
	rng := rand.New(rand.NewSource(26))
	tm := 0.0
	for i := 0; i < 5000; i++ {
		tm += rng.ExpFloat64() * 1e-3
		line := 1 + rng.Intn(12)
		if rng.Intn(5) == 0 {
			c.Windows().Stats(LineSeries(line, "csd.seconds"))
			continue
		}
		a := Attempt{
			Line: line, OnCSD: rng.Intn(2) == 0,
			Done: rng.Intn(4) != 0, Seconds: rng.ExpFloat64() * 1e-4,
			Picked: rng.Intn(2) == 0, Queue: rng.ExpFloat64() * 1e-5,
			D2HBytes: float64(rng.Intn(3) * 4096), Retried: rng.Intn(4) == 0,
		}
		c.Attempt(tm, a)
		unit := "host"
		if a.OnCSD {
			unit = "csd"
		}
		if a.Done {
			w.Observe(LineSeries(line, unit+".seconds"), tm, a.Seconds)
		}
		if a.D2HBytes > 0 {
			w.Observe(LineSeries(line, "d2h.bytes"), tm, a.D2HBytes)
		}
		if a.Picked {
			w.Observe(LineSeries(line, "queue.seconds"), tm, a.Queue)
		}
		if a.Retried {
			w.Observe(LineSeries(line, "retries"), tm, 1)
		}
	}
	var snaps [2]bytes.Buffer
	for i, win := range []*Windows{c.Windows(), w} {
		reg := metrics.New()
		win.Fold(reg)
		if err := reg.Snapshot().WriteJSON(&snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
		t.Error("the Collector hook and Windows.Observe by name folded to different snapshots")
	}
}

// TestStatsRepeat pins Stats over windows it sorts in place: the first
// call matches a digest of sorted copies of the raw values, a second
// call returns the same stats, and the second allocates only its result
// slice.
func TestStatsRepeat(t *testing.T) {
	w := NewWindows(1, 0)
	rng := rand.New(rand.NewSource(26))
	raw := make([][]float64, 4)
	for i := 0; i < 400; i++ {
		v := rng.ExpFloat64()
		w.Observe("s", float64(i)/100, v)
		raw[i/100] = append(raw[i/100], v)
	}
	first := w.Stats("s")
	for i, vals := range raw {
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		var sum float64
		for _, v := range sorted {
			sum += v
		}
		want := WindowStat{Window: i, Count: len(sorted), Sum: sum, Mean: sum / float64(len(sorted)),
			P50: metrics.Quantile(sorted, 0.5), P95: metrics.Quantile(sorted, 0.95), P99: metrics.Quantile(sorted, 0.99)}
		if first[i] != want {
			t.Errorf("window %d: %+v, want %+v", i, first[i], want)
		}
	}
	if second := w.Stats("s"); !reflect.DeepEqual(second, first) {
		t.Errorf("repeat Stats = %+v, first %+v", second, first)
	}
	if allocs := testing.AllocsPerRun(100, func() { w.Stats("s") }); allocs != 1 {
		t.Errorf("repeat Stats allocates %.1f objects, want 1 (its result slice)", allocs)
	}
}

// fillDrift builds a collector whose line 1 matches the plan and whose
// line 2 runs hot by 5x from window 2 onward, with many observations
// per window so the widened tolerance stays near the base.
func fillDrift() *Collector {
	c := NewCollector(1.0, 0)
	for win := 0; win < 8; win++ {
		for i := 0; i < 100; i++ {
			tm := float64(win) + float64(i)/128
			c.Attempt(tm, Attempt{Line: 1, OnCSD: true, Done: true, Seconds: 1e-4})
			v := 1e-4
			if win >= 2 {
				v = 5e-4
			}
			c.Attempt(tm, Attempt{Line: 2, OnCSD: true, Done: true, Seconds: v})
		}
	}
	return c
}

func TestScoreDrift(t *testing.T) {
	planned := map[int]PlannedLine{
		1: {Line: 1, Unit: "csd", Seconds: 1e-4, Total: 1e-4 * 800},
		2: {Line: 2, Unit: "csd", Seconds: 1e-4, Total: 1e-4 * 800},
	}
	cfg := DriftConfig{Tolerance: 1.0, Widen: 1.0, StaleAfter: 3}
	rep := ScoreDrift(fillDrift(), planned, cfg)
	if len(rep.Lines) != 2 {
		t.Fatalf("%d scored lines, want 2", len(rep.Lines))
	}
	byLine := rep.ByLine()
	if l1 := byLine[1]; l1.Stale || l1.Diverged != 0 || l1.Windows != 8 {
		t.Errorf("on-model line 1 drift %+v", l1)
	}
	l2 := byLine[2]
	if !l2.Stale || l2.Diverged != 6 || l2.StaleSince != 2 {
		t.Errorf("hot line 2 drift %+v (want stale, 6 diverged, since window 2)", l2)
	}
	if l2.Ratio < 4.9 || l2.Ratio > 5.1 {
		t.Errorf("line 2 worst ratio %v, want ~5", l2.Ratio)
	}
	if got := rep.StaleLines(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("StaleLines = %v", got)
	}

	advs := rep.Advisories()
	if len(advs) != 1 {
		t.Fatalf("%d advisories, want 1", len(advs))
	}
	if advs[0].Code != analysis.CodeDrift || advs[0].Line != 2 || advs[0].Severity != analysis.SevWarning {
		t.Errorf("advisory %+v", advs[0])
	}
	if !strings.Contains(advs[0].Msg, "model stale") {
		t.Errorf("advisory msg %q", advs[0].Msg)
	}

	reg := metrics.New()
	rep.Fold(reg)
	snap := reg.Snapshot()
	vals := map[string]float64{}
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	for _, g := range snap.Gauges {
		vals[g.Name] = g.Value
	}
	if vals[metrics.MetricObsDriftChecks] != 16 || vals[metrics.MetricObsDriftDiverged] != 6 || vals[metrics.MetricObsDriftStaleLines] != 1 {
		t.Errorf("drift fold %v", vals)
	}
	if vals[metrics.MetricObsDriftMaxRatio] < 4.9 {
		t.Errorf("max ratio gauge %v", vals[metrics.MetricObsDriftMaxRatio])
	}
}

func TestScoreDriftMinShare(t *testing.T) {
	// Line 2's planned total is <1% of the grand total, so even a wild
	// observed ratio must not be scored.
	c := NewCollector(1.0, 0)
	for win := 0; win < 4; win++ {
		c.Attempt(float64(win), Attempt{Line: 1, OnCSD: true, Done: true, Seconds: 1e-3})
		c.Attempt(float64(win), Attempt{Line: 2, Done: true, Seconds: 1e-6}) // 100x over plan
	}
	planned := map[int]PlannedLine{
		1: {Line: 1, Unit: "csd", Seconds: 1e-3, Total: 1.0},
		2: {Line: 2, Unit: "host", Seconds: 1e-8, Total: 1e-4},
	}
	cfg := DriftConfig{Tolerance: 1.0, Widen: 1.0, StaleAfter: 3, MinShare: 0.01}
	rep := ScoreDrift(c, planned, cfg)
	if len(rep.Lines) != 1 || rep.Lines[0].Line != 1 {
		t.Errorf("MinShare must skip the negligible line: %+v", rep.Lines)
	}
	// With MinShare zero the same line is scored and goes stale.
	cfg.MinShare = 0
	rep = ScoreDrift(c, planned, cfg)
	if got := rep.StaleLines(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("MinShare=0 stale lines = %v, want [2]", got)
	}
}

func TestScoreDriftStreakResets(t *testing.T) {
	// Divergence in 2 windows, recovery, then 2 more: never 3 in a row,
	// so never stale.
	c := NewCollector(1.0, 0)
	hot := map[int]bool{0: true, 1: true, 3: true, 4: true}
	for win := 0; win < 5; win++ {
		v := 1e-4
		if hot[win] {
			v = 1e-3
		}
		for i := 0; i < 50; i++ {
			c.Attempt(float64(win)+float64(i)/64, Attempt{Line: 1, OnCSD: true, Done: true, Seconds: v})
		}
	}
	planned := map[int]PlannedLine{1: {Line: 1, Unit: "csd", Seconds: 1e-4, Total: 1}}
	rep := ScoreDrift(c, planned, DriftConfig{Tolerance: 1.0, Widen: 1.0, StaleAfter: 3})
	l := rep.ByLine()[1]
	if l == nil || l.Stale || l.Diverged != 4 {
		t.Errorf("interrupted streak must not go stale: %+v", l)
	}
}

func TestScoreDriftNilCollector(t *testing.T) {
	rep := ScoreDrift(nil, map[int]PlannedLine{1: {Line: 1, Unit: "csd", Seconds: 1, Total: 1}}, DefaultDriftConfig())
	if rep == nil || len(rep.Lines) != 0 {
		t.Errorf("nil collector must yield an empty, non-nil report: %+v", rep)
	}
	if PlannedFromProvenance(nil) != nil {
		t.Error("nil provenance must yield nil planned costs")
	}
}

func TestExplainTableAndJSON(t *testing.T) {
	prov := &plan.Provenance{
		Planner: "activepy-optimal", THost: 2.0, TCSD: 1.0,
		Lines: []plan.LineProvenance{
			{Line: 1, Execs: 100, HostTotal: 1.5, DevTotal: 0.4, QueueOverhead: 0.1, OnCSD: true, DIn: 4096, DOut: 64},
			{Line: 2, Execs: 100, HostTotal: 0.5, DevTotal: 0.9, OnCSD: false},
		},
	}
	rep := &DriftReport{Lines: []LineDrift{
		{Line: 1, Unit: "csd", Planned: 5e-3, Observed: 2e-2, Ratio: 4, Windows: 6, Diverged: 4, Stale: true, StaleSince: 2},
	}}
	ex := Explain{Provenance: prov, Drift: rep}
	s := ex.Table().String()
	for _, want := range []string{"plan explain [activepy-optimal]", "since w2", "offloaded", "host:", "4.00x"} {
		if !strings.Contains(s, want) {
			t.Errorf("explain table missing %q:\n%s", want, s)
		}
	}
	// Without drift the table drops the observed columns entirely.
	s = Explain{Provenance: prov}.Table().String()
	if strings.Contains(s, "obs.s/exec") || strings.Contains(s, "stale") {
		t.Errorf("drift columns must be absent without a report:\n%s", s)
	}

	var buf bytes.Buffer
	if err := ex.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Provenance struct {
			Planner string `json:"planner"`
			Lines   []struct {
				Line  int  `json:"line"`
				OnCSD bool `json:"on_csd"`
			} `json:"lines"`
		} `json:"provenance"`
		Drift struct {
			Lines []struct {
				Stale bool `json:"stale"`
			} `json:"lines"`
		} `json:"drift"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("explain JSON: %v\n%s", err, buf.String())
	}
	if doc.Provenance.Planner != "activepy-optimal" || len(doc.Provenance.Lines) != 2 || !doc.Provenance.Lines[0].OnCSD {
		t.Errorf("JSON provenance %+v", doc.Provenance)
	}
	if len(doc.Drift.Lines) != 1 || !doc.Drift.Lines[0].Stale {
		t.Errorf("JSON drift %+v", doc.Drift)
	}

	// Nil-provenance explain still renders a headed, row-free table.
	if s := (Explain{}).Table().String(); !strings.Contains(s, "plan explain") {
		t.Errorf("empty explain table: %q", s)
	}
}
