// Package trace records structured timelines of a simulated run: spans
// (who was busy, doing what, from when to when), instant events
// (migrations, retries, injected faults), and sampled counters (queue
// depths, busy cores, bytes in flight). The hardware models and the
// executor record into a single Recorder threaded through the platform;
// two exporters turn a recording into (a) Chrome trace-event JSON that
// loads in Perfetto / chrome://tracing and (b) a per-component
// utilization and latency summary rendered with internal/report.
//
// The zero-overhead-when-disabled contract: a nil *Recorder is valid
// everywhere and every method on it is a no-op. Recording never
// schedules simulator events, never consults the wall clock, and never
// perturbs any model decision, so a run with a recorder attached is
// bit-identical — event for event, number for number — to the same run
// without one. Because the simulator itself is deterministic, the same
// seed always produces a byte-identical trace.
//
// Series names come from internal/metrics' catalogue, which owns every
// observed name; Recorder.Fold condenses a recording into a
// metrics.Registry.
//
// Times are simulated seconds (sim.Time is an alias of float64; this
// package uses float64 directly so it need not import the simulator).
package trace

import "strings"

// Arg is one key/value annotation attached to a span or instant event.
// Values should be small scalars (numbers, strings, bools): they are
// serialized into the Chrome trace's args object.
type Arg struct {
	Key   string
	Value any
}

// Span is one completed interval on a component's timeline.
type Span struct {
	Component string // timeline lane (a Perfetto "process")
	Category  string // Chrome trace "cat" field, for filtering
	Name      string // low-cardinality event name shown on the slice
	Start     float64
	End       float64
	Args      []Arg
}

// Instant is a zero-duration event pinned to a component's timeline.
type Instant struct {
	Component string
	Category  string
	Name      string
	At        float64
	Args      []Arg
}

// Sample is one (time, value) point of a counter series. A counter
// holds its value until the next sample (step semantics).
type Sample struct {
	At    float64
	Value float64
}

// Series is one sampled counter: a named sequence of samples owned by
// the component lane its name starts with. Its unit is the catalogue's
// (metrics.Lookup).
type Series struct {
	Name      string
	Component string
	Samples   []Sample
}

// Recorder accumulates spans, instants, and counter samples. Construct
// with New; a nil *Recorder is the disabled state and every method on
// it no-ops. Recorders are not safe for concurrent use — the simulator
// is single-goroutine by design, and so is the recorder.
type Recorder struct {
	spans    []Span
	instants []Instant
	series   []*Series
	index    map[string]*Series

	compOrder []string
	compSeen  map[string]bool
}

// New returns an empty, enabled recorder.
func New() *Recorder {
	return &Recorder{
		index:    make(map[string]*Series),
		compSeen: make(map[string]bool),
	}
}

func (r *Recorder) component(name string) {
	if !r.compSeen[name] {
		r.compSeen[name] = true
		r.compOrder = append(r.compOrder, name)
	}
}

// Span records a completed interval [start, end] on component's
// timeline. Spans are recorded at completion, so they arrive in
// completion order — deterministic under the simulator's event order.
func (r *Recorder) Span(component, category, name string, start, end float64, args ...Arg) {
	if r == nil {
		return
	}
	r.component(component)
	r.spans = append(r.spans, Span{
		Component: component, Category: category, Name: name,
		Start: start, End: end, Args: args,
	})
}

// Instant records a zero-duration event at time at.
func (r *Recorder) Instant(component, category, name string, at float64, args ...Arg) {
	if r == nil {
		return
	}
	r.component(component)
	r.instants = append(r.instants, Instant{
		Component: component, Category: category, Name: name, At: at, Args: args,
	})
}

// Sample appends one point to the named counter series, registering the
// series on first use under the component lane that is its name's first
// dot-separated segment. Consecutive samples with an unchanged value are
// coalesced — counters hold their value between samples, so the dropped
// point carries no information.
func (r *Recorder) Sample(name string, at, value float64) {
	if r == nil {
		return
	}
	s := r.index[name]
	if s == nil {
		component, _, _ := strings.Cut(name, ".")
		r.component(component)
		s = &Series{Name: name, Component: component}
		r.index[name] = s
		r.series = append(r.series, s)
	}
	if n := len(s.Samples); n > 0 && s.Samples[n-1].Value == value {
		return
	}
	s.Samples = append(s.Samples, Sample{At: at, Value: value})
}

// Spans returns the recorded spans in completion order. The slice is
// owned by the recorder; treat it as read-only.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Instants returns the recorded instant events in record order.
func (r *Recorder) Instants() []Instant {
	if r == nil {
		return nil
	}
	return r.instants
}

// Counters returns the counter series in first-use order.
func (r *Recorder) Counters() []*Series {
	if r == nil {
		return nil
	}
	return r.series
}

// Window returns the [min, max] simulated-time extent of everything
// recorded, and false when the recording is empty.
func (r *Recorder) Window() (min, max float64, ok bool) {
	if r == nil {
		return 0, 0, false
	}
	first := true
	take := func(lo, hi float64) {
		if first {
			min, max, first = lo, hi, false
			return
		}
		if lo < min {
			min = lo
		}
		if hi > max {
			max = hi
		}
	}
	for i := range r.spans {
		take(r.spans[i].Start, r.spans[i].End)
	}
	for i := range r.instants {
		take(r.instants[i].At, r.instants[i].At)
	}
	for _, s := range r.series {
		if n := len(s.Samples); n > 0 {
			take(s.Samples[0].At, s.Samples[n-1].At)
		}
	}
	return min, max, !first
}
