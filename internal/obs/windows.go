// Package obs is the time-series observability layer: fixed-interval
// windowed snapshots of observed quantities driven by *simulated* time,
// per-line observed-cost attribution for the executor, drift scoring of
// observed costs against the fitted curves the planner trusted (the
// AV012 advisory), and the plan-provenance explain renderer behind
// `activego explain` (DESIGN.md §15).
//
// The package follows the repo's nil-is-inert observability contract: a
// nil *Windows, *Collector, or *DriftReport is valid everywhere and
// every method on it no-ops, so an unobserved run is bit-identical to
// an observed one. Windows advance lazily from observation timestamps —
// recording never schedules simulator events and never consults a wall
// clock, which keeps obs inside detlint's deterministic tier.
package obs

import (
	"fmt"
	"sort"

	"activego/internal/metrics"
)

// Windows accumulates named series into fixed-interval windows keyed by
// simulated time. A ring keeps the most recent windows per series; older
// windows are dropped as new ones open.
type Windows struct {
	interval float64
	keep     int
	series   map[string][]windowCell // name -> cells, ascending window index
	last     int                     // highest window index observed
	seen     bool                    // any observation at all
}

// windowCell is one (series, window) bucket of raw observations, kept in
// simulated-time order.
type windowCell struct {
	index int
	vals  []float64
}

// DefaultKeep is the default ring depth: enough windows for a serving
// run's whole horizon at the default interval without unbounded growth.
const DefaultKeep = 256

// NewWindows creates a window set with the given interval (simulated
// seconds per window) and ring depth (keep <= 0 uses DefaultKeep). A
// non-positive interval returns nil — the inert, zero-overhead state.
func NewWindows(interval float64, keep int) *Windows {
	if interval <= 0 {
		return nil
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &Windows{interval: interval, keep: keep, series: map[string][]windowCell{}}
}

// Observe records value v for the named series at simulated time t.
// No-op on a nil receiver.
func (w *Windows) Observe(name string, t, v float64) {
	if w == nil {
		return
	}
	idx := int(t / w.interval)
	if idx < 0 {
		idx = 0
	}
	if idx > w.last || !w.seen {
		w.last, w.seen = idx, true
	}
	cells := w.series[name]
	n := len(cells)
	if n > 0 && cells[n-1].index == idx {
		cells[n-1].vals = append(cells[n-1].vals, v)
		w.series[name] = cells
		return
	}
	// Observations arrive in nondecreasing simulated time per series, so
	// a new index always opens at the tail; drop the oldest cell when the
	// ring is full.
	cells = append(cells, windowCell{index: idx, vals: []float64{v}})
	if len(cells) > w.keep {
		cells = cells[1:]
	}
	w.series[name] = cells
}

// Count returns the number of windows spanned so far: highest observed
// index + 1 (0 on nil or before any observation).
func (w *Windows) Count() int {
	if w == nil || !w.seen {
		return 0
	}
	return w.last + 1
}

// Names returns the observed series names, sorted.
func (w *Windows) Names() []string {
	if w == nil {
		return nil
	}
	names := make([]string, 0, len(w.series))
	for n := range w.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WindowStat is one series' digest over one window: the per-window delta
// view (count and sum of observations landing in the window) plus exact
// quantiles over the window's raw values.
type WindowStat struct {
	Window int     `json:"window"` // window index: [Window*interval, (Window+1)*interval)
	Count  int     `json:"count"`
	Sum    float64 `json:"sum"`
	Mean   float64 `json:"mean"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
}

// Stats returns the kept windows of the named series in window order
// (nil on a nil receiver or an unknown series). Quantiles are exact —
// computed by sorting a copy of each window's raw values — because a
// window holds bounded, already-collected observations.
func (w *Windows) Stats(name string) []WindowStat {
	if w == nil {
		return nil
	}
	cells := w.series[name]
	out := make([]WindowStat, 0, len(cells))
	for _, c := range cells {
		out = append(out, statOf(c))
	}
	return out
}

func statOf(c windowCell) WindowStat {
	s := WindowStat{Window: c.index, Count: len(c.vals)}
	sorted := append([]float64(nil), c.vals...)
	sort.Float64s(sorted)
	for _, v := range sorted {
		s.Sum += v
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
		s.P50 = metrics.Quantile(sorted, 0.50)
		s.P95 = metrics.Quantile(sorted, 0.95)
		s.P99 = metrics.Quantile(sorted, 0.99)
	}
	return s
}

// Fold bills every kept window of every series into the registry as
// gauges under the obs.win.* scheme:
//
//	obs.win.<window>.<series>.{count,sum,p50,p95,p99}
//
// The window index is zero-padded to four digits so the name-sorted
// snapshot reads in window order, and the total span is recorded in the
// obs.windows gauge. Series fold in sorted-name order, so two registries
// fed the same observations snapshot identically. No-op when either side
// is nil.
func (w *Windows) Fold(reg *metrics.Registry) {
	if w == nil || reg == nil {
		return
	}
	for _, name := range w.Names() {
		for _, s := range w.Stats(name) {
			base := fmt.Sprintf("%s%04d.%s.", metrics.ObsWindowPrefix, s.Window, name)
			reg.Gauge(base + "count").Set(float64(s.Count))
			reg.Gauge(base + "sum").Set(s.Sum)
			reg.Gauge(base + "p50").Set(s.P50)
			reg.Gauge(base + "p95").Set(s.P95)
			reg.Gauge(base + "p99").Set(s.P99)
		}
	}
	reg.Gauge(metrics.MetricObsWindows).Set(float64(w.Count()))
}
