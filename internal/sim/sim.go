// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every hardware model in activego (flash arrays, NVMe links, CSE cores,
// the host CPU) is built on this kernel. Time is a float64 number of
// seconds of simulated time; the kernel never consults the wall clock, so
// a simulation run is bit-reproducible: same inputs, same event order,
// same results.
//
// The kernel is callback-based. Work is scheduled with At/After and runs
// when the clock reaches it. Ties are broken by scheduling order, which
// keeps multi-component models deterministic without locks (the kernel is
// single-goroutine by design).
package sim

import (
	"fmt"
	"math"

	"activego/internal/trace"
)

// Time is a point in simulated time, in seconds since simulation start.
type Time = float64

// Event is a scheduled callback. Cancel it to prevent it from firing;
// cancellation is how resources reschedule in-flight work when their
// effective service rate changes.
//
// Lifetime contract: an *Event handle is valid from scheduling until the
// kernel disposes of the event — immediately after its callback returns,
// or when a canceled event is discarded from the calendar. The kernel
// then recycles the Event into a free list, so holding (or Canceling) a
// handle past that point is a model bug. The two cancellation sites in
// the tree (resource rescheduling, NVMe completion timers) both cancel
// only still-pending events or self-cancel inside the event's own
// callback, which the contract permits.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// eventHeap is a binary min-heap over (at, seq) with typed push/pop —
// container/heap would route every operation through interface{} values
// and indirect method calls, which the schedule/fire path is hot enough
// to feel. Only the kernel touches it, so the specialized form stays
// small: sift-up on push, sift-down on pop.
type eventHeap []*Event

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !eventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() *Event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(s[l], s[small]) {
			small = l
		}
		if r < n && eventLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// Sim is a discrete-event simulator instance. The zero value is not ready
// for use; construct with New.
type Sim struct {
	now    Time
	seq    uint64
	events eventHeap
	// free recycles Event structs: a long run schedules millions of
	// events but holds only a calendar's worth live, so reuse drops the
	// kernel's steady-state allocation rate to zero (see the Event
	// lifetime contract).
	free  []*Event
	fired uint64
	// rec, if non-nil, receives structured spans/counters from every
	// model built on this simulator; see SetRecorder.
	rec *trace.Recorder
}

// New returns an empty simulator positioned at time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// EventsFired returns the number of calendar entries fired so far; useful
// for tests and for sanity-checking model complexity. A Resource fires a
// group of shards that started together from one entry.
func (s *Sim) EventsFired() uint64 { return s.fired }

// SetRecorder attaches a structured trace recorder. Every model holding
// this simulator (resources, links, the NVMe/flash/CSD/exec stack)
// records its spans and counters into it. Pass nil to disable — the
// disabled state is free: recording never schedules events or perturbs
// any model decision, so an unrecorded run is bit-identical to a
// recorded one.
func (s *Sim) SetRecorder(r *trace.Recorder) { s.rec = r }

// Recorder returns the attached recorder (nil when disabled). A nil
// *trace.Recorder is valid and inert, so callers may record through the
// return value unconditionally; they should still guard allocations
// behind a nil check.
func (s *Sim) Recorder() *trace.Recorder { return s.rec }

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past panics: it indicates a model bug, and silently reordering time
// would destroy determinism guarantees.
func (s *Sim) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %.12g before now %.12g", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*e = Event{at: t, seq: s.seq, fn: fn}
	} else {
		e = &Event{at: t, seq: s.seq, fn: fn}
	}
	s.seq++
	s.events.push(e)
	return e
}

// recycle returns a disposed event to the free list. The callback
// reference is dropped eagerly so the free list never pins closures (and
// whatever they capture) across runs.
func (s *Sim) recycle(e *Event) {
	e.fn = nil
	s.free = append(s.free, e)
}

// After schedules fn to run d seconds from now. Negative d panics.
func (s *Sim) After(d float64, fn func()) *Event {
	return s.At(s.now+d, fn)
}

// Pending returns the number of scheduled (possibly canceled) events.
func (s *Sim) Pending() int { return len(s.events) }

// Step fires the single earliest pending non-canceled event, advancing the
// clock to its time. It returns false when no events remain.
func (s *Sim) Step() bool {
	for len(s.events) > 0 {
		e := s.events.pop()
		if e.canceled {
			s.recycle(e)
			continue
		}
		s.now = e.at
		s.fired++
		e.fn()
		s.recycle(e)
		return true
	}
	return false
}

// Run fires events until the calendar is empty.
func (s *Sim) Run() {
	for s.Step() {
	}
}
