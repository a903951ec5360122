// Package metrics is a typed registry of counters, gauges, and
// log-bucketed histograms, the catalogue of every observed name, and
// the one tail statistic (Quantile, exact nearest rank). It is a leaf:
// it imports no other package of this module, and the layers that
// observe a run fold into it. Where internal/trace answers "what
// happened when in one run", this package answers "how much, how fast,
// and did it change": the framework self-instruments its own
// wall-clock phases (sampling, curve fitting, planning, execution), the
// executor folds per-line simulated latencies and run counters in, and
// trace.Recorder.Fold condenses a recording's series and span latencies
// into registry entries. Snapshots serialize deterministically (names
// sorted) so they can ride in benchmark manifests (internal/bench) and
// be diffed by CI.
//
// The registry inherits the trace layer's zero-overhead contract: a nil
// *Registry is valid everywhere, every method on it (and on the nil
// instruments it hands out) is a no-op, and observing never feeds back
// into any model decision — a run with a registry attached is
// bit-identical to the same run without one. Unlike the single-threaded
// trace recorder, a non-nil registry is safe for concurrent use, because
// the -httpmon endpoint snapshots it while a sweep is running.
package metrics

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
)

// Registry holds named instruments. Construct with New; a nil *Registry
// is the disabled state: it hands out nil instruments whose methods all
// no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty, enabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns nil, which is itself a valid no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil-safe like
// Counter.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use;
// nil-safe like Counter.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{buckets: make(map[int]uint64)}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically accumulating sum.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add accumulates delta. No-op on a nil counter.
func (c *Counter) Add(delta float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Value returns the accumulated sum (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a last-value-wins measurement.
type Gauge struct {
	mu  sync.Mutex
	v   float64
	set bool
}

// Set records v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v, g.set = v, true
	g.mu.Unlock()
}

// Value returns the last set value (0 on nil or never-set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a log-bucketed distribution: bucket i counts observations
// in (2^(i-1), 2^i]. Powers of two cover the full float64 range, so one
// layout serves nanosecond wall-clock phases and multi-second simulated
// latencies alike. Count, sum, and the extremes are exact; the buckets
// are a shape for snapshots, not a quantile source — tails come from
// Quantile over the raw values.
type Histogram struct {
	mu      sync.Mutex
	count   uint64
	sum     float64
	min     float64
	max     float64
	buckets map[int]uint64 // exponent -> count; see bucketOf
}

// bucketOf maps a value to its bucket exponent: the smallest i with
// v <= 2^i. Non-positive values land in a dedicated underflow bucket.
const underflowBucket = math.MinInt32

func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return underflowBucket
	}
	e := math.Ceil(math.Log2(v))
	return int(e)
}

// upperBound is the inclusive upper edge of a bucket.
func upperBound(b int) float64 {
	if b == underflowBucket {
		return 0
	}
	return math.Pow(2, float64(b))
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the exact q-quantile (0 <= q <= 1) of sorted, an
// ascending slice, by the nearest-rank rule: the smallest value with at
// least q of the observations at or below it. Quantile(sorted, 0) is
// the minimum and Quantile(sorted, 1) the maximum; an empty slice
// yields 0. Every tail this module reports comes from here.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[n-1]
	}
	return sorted[int(math.Ceil(float64(n)*q))-1] // rank ceil(n·q) is in [1, n]
}

// Bucket is one populated histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper edge (2^exponent; 0 for
	// the non-positive underflow bucket).
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramSnap is the serialized form of one histogram.
type HistogramSnap struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// ScalarSnap is the serialized form of one counter or gauge.
type ScalarSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a point-in-time, deterministic (name-sorted) view of a
// registry, the form that rides in bench manifests and over -httpmon.
type Snapshot struct {
	Counters   []ScalarSnap    `json:"counters,omitempty"`
	Gauges     []ScalarSnap    `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// Snapshot captures the registry. On a nil registry it returns an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for _, name := range sortedKeys(counters) {
		s.Counters = append(s.Counters, ScalarSnap{Name: name, Value: counters[name].Value()})
	}
	for _, name := range sortedKeys(gauges) {
		s.Gauges = append(s.Gauges, ScalarSnap{Name: name, Value: gauges[name].Value()})
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		h.mu.Lock()
		snap := HistogramSnap{Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		exps := make([]int, 0, len(h.buckets))
		for e := range h.buckets {
			exps = append(exps, e)
		}
		sort.Ints(exps)
		for _, e := range exps {
			snap.Buckets = append(snap.Buckets, Bucket{UpperBound: upperBound(e), Count: h.buckets[e]})
		}
		h.mu.Unlock()
		s.Histograms = append(s.Histograms, snap)
	}
	return s
}

// Merge folds src into r: counters add, set gauges overwrite (last merge
// wins, so merging per-run registries in input order reproduces the
// last-writer-wins outcome of the serial runs sharing one registry), and
// histograms combine counts, sums, extremes, and buckets. The parallel
// experiment harnesses give each concurrent run a private registry and
// Merge them back in input order, which makes the merged snapshot
// deterministic regardless of scheduling. Nil receiver or source is a
// no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	counters := make(map[string]*Counter, len(src.counters))
	for k, v := range src.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(src.gauges))
	for k, v := range src.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(src.hists))
	for k, v := range src.hists {
		hists[k] = v
	}
	src.mu.Unlock()

	for _, name := range sortedKeys(counters) {
		r.Counter(name).Add(counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		g := gauges[name]
		g.mu.Lock()
		v, set := g.v, g.set
		g.mu.Unlock()
		if set {
			r.Gauge(name).Set(v)
		}
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		h.mu.Lock()
		count, sum, min, max := h.count, h.sum, h.min, h.max
		buckets := make(map[int]uint64, len(h.buckets))
		for e, c := range h.buckets {
			buckets[e] = c
		}
		h.mu.Unlock()
		if count == 0 {
			continue
		}
		dst := r.Histogram(name)
		dst.mu.Lock()
		if dst.count == 0 || min < dst.min {
			dst.min = min
		}
		if dst.count == 0 || max > dst.max {
			dst.max = max
		}
		dst.count += count
		dst.sum += sum
		for e, c := range buckets {
			dst.buckets[e] += c
		}
		dst.mu.Unlock()
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteJSON serializes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
