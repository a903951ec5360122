package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The reference kernel: the calendar as it stood when Cancel only set a
// flag and a canceled event stayed on the heap until its time came,
// kept verbatim apart from the renames and the recorder, which the
// schedules below do not use. The live-only calendar must fire the same
// events at the same times in the same order.

type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
}

func (e *refEvent) Cancel() { e.canceled = true }

type refEventHeap []*refEvent

func refEventLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *refEventHeap) push(e *refEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !refEventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *refEventHeap) pop() *refEvent {
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
		if l < n && refEventLess(s[l], s[small]) {
			small = l
		}
		if r < n && refEventLess(s[r], s[small]) {
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

type refSim struct {
	now    Time
	seq    uint64
	events refEventHeap
	free   []*refEvent
	fired  uint64
}

func (s *refSim) Now() Time { return s.now }

func (s *refSim) EventsFired() uint64 { return s.fired }

func (s *refSim) At(t Time, fn func()) *refEvent {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %.12g before now %.12g", t, s.now))
	}
	var e *refEvent
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*e = refEvent{at: t, seq: s.seq, fn: fn}
	} else {
		e = &refEvent{at: t, seq: s.seq, fn: fn}
	}
	s.seq++
	s.events.push(e)
	return e
}

func (s *refSim) recycle(e *refEvent) {
	e.fn = nil
	s.free = append(s.free, e)
}

func (s *refSim) Pending() int { return len(s.events) }

func (s *refSim) Step() bool {
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

// kernelUnderTest is the surface the schedules drive.
type kernelUnderTest interface {
	at(t Time, fn func()) interface{ Cancel() }
	Step() bool
	Now() Time
	Pending() int
	EventsFired() uint64
}

type liveKernel struct{ *Sim }

func (k liveKernel) at(t Time, fn func()) interface{ Cancel() } { return k.At(t, fn) }

type lazyKernel struct{ *refSim }

func (k lazyKernel) at(t Time, fn func()) interface{ Cancel() } { return k.At(t, fn) }

// runKernelSchedule drives one seeded schedule against the live-only
// calendar (live true) or the reference and returns the fired
// (time, callback) log, the number of events fired and the number
// booked. The schedule
// mixes At on a tie-prone time grid, Cancel of pending events, cancel
// and rebook (as Resource.SetAvailability does), and callbacks that
// cancel themselves. Every decision is a function of the seed, the
// callback's id and the set of pending ids, which the schedule tracks
// itself, so both kernels make the same decisions as long as they fire
// the same events. On the live-only calendar, Pending must equal the
// number of pending ids after every action; a mismatch is returned as
// an error.
func runKernelSchedule(seed int64, live bool) (log []string, fired uint64, booked int, err error) {
	rng := rand.New(rand.NewSource(seed))
	var k kernelUnderTest = lazyKernel{&refSim{}}
	if live {
		k = liveKernel{New()}
	}
	grid := []float64{0, 0.5, 0.5, 1, 1.5, 3}
	type event struct {
		id int
		h  interface{ Cancel() }
	}
	var pending []event // in booking order
	check := func(what string) {
		if live && err == nil && k.Pending() != len(pending) {
			err = fmt.Errorf("after %s at %v: Pending() = %d, %d events live", what, k.Now(), k.Pending(), len(pending))
		}
	}
	drop := func(id int) {
		pending = slices.DeleteFunc(pending, func(b event) bool { return b.id == id })
	}
	cancel := func(i int) {
		b := pending[i]
		pending = slices.Delete(pending, i, i+1)
		b.h.Cancel()
		check(fmt.Sprintf("cancel of %d", b.id))
	}
	nextID := 0
	var schedule func(at Time)
	schedule = func(at Time) {
		id := nextID
		nextID++
		h1, h2 := splitmix(uint64(seed)<<20|uint64(id)), splitmix(^(uint64(seed)<<20 | uint64(id)))
		action, delay, pick := float64(h1>>11)/(1<<53), grid[h2%uint64(len(grid))], int(h2>>32)
		var h interface{ Cancel() }
		h = k.at(at, func() {
			drop(id)
			log = append(log, fmt.Sprintf("%d@%v", id, k.Now()))
			switch {
			case action < 0.15:
				h.Cancel() // a self-cancel, as nvme's expire → settle does: a no-op
				check(fmt.Sprintf("self-cancel of %d", id))
			case action < 0.45 && nextID < 400:
				schedule(k.Now() + delay)
			case action < 0.6 && len(pending) > 0:
				cancel(pick % len(pending))
			case action < 0.8 && len(pending) > 0 && nextID < 400:
				// Cancel and rebook, as SetAvailability does for every
				// job in service.
				cancel(pick % len(pending))
				schedule(k.Now() + delay)
			case action < 0.9 && nextID < 400:
				schedule(k.Now() + delay)
				schedule(k.Now() + delay)
			}
		})
		pending = append(pending, event{id, h})
		check(fmt.Sprintf("booking of %d", id))
	}
	for range 5 + rng.Intn(30) {
		schedule(grid[rng.Intn(len(grid))] + float64(rng.Intn(4)))
	}
	for range rng.Intn(6) {
		if len(pending) > 0 {
			cancel(rng.Intn(len(pending)))
		}
	}
	for k.Step() {
		check("step")
	}
	if len(pending) != 0 && err == nil {
		err = fmt.Errorf("calendar drained with %d events never fired", len(pending))
	}
	return log, k.EventsFired(), nextID, err
}

// splitmix is the splitmix64 finalizer: a cheap seeded hash for the
// per-callback decisions.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// TestLiveCalendarMatchesLazyReference runs 1,000 seeded schedules on
// the live-only calendar and on the lazy-deletion reference. The fired
// (time, callback) sequences and EventsFired must be equal, and the
// live-only calendar's Pending must count exactly the live events after
// every booking, cancel and step.
func TestLiveCalendarMatchesLazyReference(t *testing.T) {
	canceled := 0
	for seed := int64(1); seed <= 1000; seed++ {
		want, wantN, booked, _ := runKernelSchedule(seed, false)
		got, gotN, _, err := runKernelSchedule(seed, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: fired sequence diverged from the reference\ngot  %s\nwant %s",
				seed, strings.Join(got, " "), strings.Join(want, " "))
		}
		if gotN != wantN {
			t.Fatalf("seed %d: fired %d events, the reference %d", seed, gotN, wantN)
		}
		canceled += booked - int(wantN)
	}
	if canceled == 0 {
		t.Error("no schedule canceled an event")
	}
	t.Logf("%d events canceled over 1,000 schedules", canceled)
}
