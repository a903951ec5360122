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
	"sort"
	"strconv"

	"activego/internal/metrics"
)

// Windows accumulates named series into fixed-interval windows keyed by
// simulated time. A ring keeps the most recent windows per series; older
// windows are dropped as new ones open.
type Windows struct {
	interval float64
	keep     int
	series   map[string]*series // by name; the Collector holds handles too
	last     int                // highest window index observed
	seen     bool               // any observation at all
}

// series is one named series: the digests of its kept closed windows,
// oldest first, and the raw values of its open window. A window closes
// when the series opens a later one, and is digested then, so a series
// holds at most keep-1 digests and one window's values. A *series is
// the handle the Collector resolves once per (line, kind), so its hooks
// reach the series without hashing a name.
type series struct {
	closed []WindowStat
	open   windowCell // no observation yet while vals is empty
}

// windowCell is one (series, window) bucket of raw observations. Stats
// sorts vals in place; order within a window carries no meaning.
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
	return &Windows{interval: interval, keep: keep, series: map[string]*series{}}
}

// Observe records value v for the named series at simulated time t.
// No-op on a nil receiver.
func (w *Windows) Observe(name string, t, v float64) {
	if w == nil {
		return
	}
	w.observe(w.lookup(name), t, v)
}

// lookup returns the named series, opening it on first use.
func (w *Windows) lookup(name string) *series {
	s := w.series[name]
	if s == nil {
		s = &series{}
		w.series[name] = s
	}
	return s
}

// observe records value v for series s at simulated time t.
func (w *Windows) observe(s *series, t, v float64) {
	idx := int(t / w.interval)
	if idx < 0 {
		idx = 0
	}
	if idx > w.last || !w.seen {
		w.last, w.seen = idx, true
	}
	c := &s.open
	if len(c.vals) > 0 && c.index != idx {
		// Observations arrive in nondecreasing simulated time per series,
		// so a new index closes the open window for good: digest it into
		// the ring, dropping the oldest digest when the ring is full, and
		// reuse its buffer for the new window.
		if w.keep > 1 {
			st := statOf(c)
			if n := len(s.closed); n < w.keep-1 {
				s.closed = append(s.closed, st)
			} else {
				copy(s.closed, s.closed[1:])
				s.closed[n-1] = st
			}
		}
		c.vals = c.vals[:0]
	}
	if len(c.vals) == 0 {
		c.index = idx
	}
	c.vals = append(c.vals, v)
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
// computed over each window's raw values, sorted in place — because a
// window holds bounded, already-collected observations. Closed windows
// return the digests taken when they closed; only the open window is
// digested here, and a repeat call finds it sorted and only re-scans it.
func (w *Windows) Stats(name string) []WindowStat {
	if w == nil {
		return nil
	}
	s := w.series[name]
	if s == nil {
		return nil
	}
	out := make([]WindowStat, 0, len(s.closed)+1)
	out = append(out, s.closed...)
	if len(s.open.vals) > 0 {
		out = append(out, statOf(&s.open))
	}
	return out
}

// statOf digests one window. The sum runs over the sorted values, so it
// does not depend on the order observations arrived in.
func statOf(c *windowCell) WindowStat {
	sort.Float64s(c.vals)
	s := WindowStat{Window: c.index, Count: len(c.vals)}
	for _, v := range c.vals {
		s.Sum += v
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
		s.P50 = metrics.Quantile(c.vals, 0.50)
		s.P95 = metrics.Quantile(c.vals, 0.95)
		s.P99 = metrics.Quantile(c.vals, 0.99)
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
// fed the same observations snapshot identically. It reads the windows
// Stats returns in place: the closed digests, then the open window,
// digested as Stats digests it. No-op when either side is nil.
func (w *Windows) Fold(reg *metrics.Registry) {
	if w == nil || reg == nil {
		return
	}
	var buf []byte // every gauge name is built here; only its string allocates
	for _, name := range w.Names() {
		s := w.series[name]
		for i := range s.closed {
			buf = foldWindow(reg, buf, name, &s.closed[i])
		}
		if len(s.open.vals) > 0 {
			st := statOf(&s.open)
			buf = foldWindow(reg, buf, name, &st)
		}
	}
	reg.Gauge(metrics.MetricObsWindows).Set(float64(w.Count()))
}

// foldWindow sets the gauges of one window of the named series, building
// each gauge name in buf, and returns buf for the next window.
func foldWindow(reg *metrics.Registry, buf []byte, name string, s *WindowStat) []byte {
	buf = append(buf[:0], metrics.ObsWindowPrefix...)
	buf = appendWindow(buf, s.Window)
	buf = append(buf, '.')
	buf = append(buf, name...)
	buf = append(buf, '.')
	base := len(buf)
	for _, g := range [...]struct {
		field string
		v     float64
	}{{"count", float64(s.Count)}, {"sum", s.Sum}, {"p50", s.P50}, {"p95", s.P95}, {"p99", s.P99}} {
		buf = append(buf[:base], g.field...)
		reg.Gauge(string(buf)).Set(g.v)
	}
	return buf
}

// appendWindow appends window index i zero-padded to four digits, as
// fmt's %04d prints it. Window indices are never negative.
func appendWindow(b []byte, i int) []byte {
	for p := 1000; p > 1 && i < p; p /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}
