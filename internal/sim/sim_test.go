package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []float64
	times := []float64{3, 1, 2, 5, 4, 0.5}
	for _, at := range times {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.Run()
	want := append([]float64(nil), times...)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if s.Now() != 5 {
		t.Errorf("clock at %v, want 5", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken at %d: %v", i, got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Error("canceled event fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(2, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past must panic")
		}
	}()
	s.At(1, func() {})
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(0.1, recurse)
		}
	}
	s.After(0.1, recurse)
	s.Run()
	if depth != 100 {
		t.Errorf("depth %d, want 100", depth)
	}
}

// TestClockMonotone is a property test: under any random schedule, event
// callbacks observe a non-decreasing clock.
func TestClockMonotone(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		last := -1.0
		ok := true
		var schedule func(remaining int)
		schedule = func(remaining int) {
			if remaining <= 0 {
				return
			}
			s.After(rng.Float64(), func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
				if rng.Intn(2) == 0 {
					schedule(remaining - 1)
				}
			})
			schedule(remaining - 1)
		}
		schedule(int(n%12) + 1)
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestResourceSingleJob(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1, 100)
	var start, end Time
	r.Submit(200, func(st, en Time) { start, end = st, en })
	s.Run()
	if start != 0 || end != 2 {
		t.Errorf("job ran [%v,%v], want [0,2]", start, end)
	}
}

func TestResourceFIFOQueueing(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1, 100)
	var ends []Time
	for i := 0; i < 3; i++ {
		r.Submit(100, func(_, en Time) { ends = append(ends, en) })
	}
	s.Run()
	want := []Time{1, 2, 3}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("job %d ended at %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestResourceMultiServer(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 2, 100)
	var ends []Time
	for i := 0; i < 4; i++ {
		r.Submit(100, func(_, en Time) { ends = append(ends, en) })
	}
	s.Run()
	// Two cores: jobs finish at 1,1,2,2.
	want := []Time{1, 1, 2, 2}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("job %d ended at %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestResourceAvailabilityRescalesInFlight(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1, 100)
	var end Time
	r.Submit(100, func(_, en Time) { end = en }) // 1s at full rate
	// Halfway through, availability drops to 50%: remaining 50 units now
	// take 1s, so completion moves from t=1 to t=1.5.
	s.At(0.5, func() { r.SetAvailability(0.5) })
	s.Run()
	if end < 1.499 || end > 1.501 {
		t.Errorf("rescaled job ended at %v, want 1.5", end)
	}
}

func TestResourceAvailabilityRestores(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1, 100)
	var end Time
	r.Submit(100, func(_, en Time) { end = en })
	s.At(0.25, func() { r.SetAvailability(0.5) })
	s.At(0.75, func() { r.SetAvailability(1.0) })
	// 25 units by 0.25; 25 units in [0.25,0.75] at half rate; 50 left at
	// full rate -> ends at 1.25.
	s.Run()
	if end < 1.249 || end > 1.251 {
		t.Errorf("job ended at %v, want 1.25", end)
	}
}

// TestResourceWorkConservation is a property test: total completed work
// equals total submitted work, for any schedule of jobs and availability
// changes.
func TestResourceWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		r := NewResource(s, "r", 1+rng.Intn(4), 1+rng.Float64()*100)
		var submitted float64
		n := 1 + rng.Intn(10)
		for i := 0; i < n; i++ {
			w := rng.Float64() * 50
			submitted += w
			at := rng.Float64() * 2
			s.At(at, func() { r.Submit(w, nil) })
		}
		for i := 0; i < 3; i++ {
			at := rng.Float64() * 3
			frac := 0.1 + 0.9*rng.Float64()
			s.At(at, func() { r.SetAvailability(frac) })
		}
		s.Run()
		done := r.CompletedWork()
		return done > submitted*0.999 && done < submitted*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestResourceTieOrder pins completion order under ties: three equal jobs
// run side by side on a 4-core resource, availability halves at t=3, and
// all three finish at the same instant. Tied completions must fire in
// submit order, and CompletedWork read mid-run must not depend on how the
// in-flight set is iterated — every repetition is bit-identical.
func TestResourceTieOrder(t *testing.T) {
	var firstWork float64
	for rep := 0; rep < 300; rep++ {
		s := New()
		r := NewResource(s, "r", 4, 1)
		var order []byte
		for _, name := range []byte("abc") {
			r.Submit(10, func(_, _ Time) { order = append(order, name) })
		}
		s.At(3, func() { r.SetAvailability(0.5) })
		var work float64
		s.At(5, func() { work = r.CompletedWork() })
		s.Run()
		if string(order) != "abc" {
			t.Fatalf("repetition %d: tied jobs completed in order %q, want submit order \"abc\"", rep, order)
		}
		if rep == 0 {
			firstWork = work
		} else if math.Float64bits(work) != math.Float64bits(firstWork) {
			t.Fatalf("repetition %d: CompletedWork %v, repetition 0 read %v", rep, work, firstWork)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 2, 100)
	r.Submit(100, nil) // one core busy 1s
	s.Run()
	s.At(s.Now()+1, func() {}) // idle second
	s.Run()
	u := r.Utilization()
	if u < 0.24 || u > 0.26 {
		t.Errorf("utilization %v, want 0.25 (1 of 2 cores for 1 of 2 seconds)", u)
	}
}

func TestLinkTransferTime(t *testing.T) {
	s := New()
	l := NewLink(s, "l", 1000, 0.01)
	var end Time
	l.Transfer(500, func(_, en Time) { end = en })
	s.Run()
	if end < 0.509 || end > 0.511 {
		t.Errorf("transfer ended at %v, want 0.51", end)
	}
}

func TestLinkSerializesFIFO(t *testing.T) {
	s := New()
	l := NewLink(s, "l", 1000, 0)
	var ends []Time
	l.Transfer(1000, func(_, en Time) { ends = append(ends, en) })
	l.Transfer(1000, func(_, en Time) { ends = append(ends, en) })
	s.Run()
	if ends[0] != 1 || ends[1] != 2 {
		t.Errorf("transfers ended at %v, want [1 2]", ends)
	}
}

func TestLinkZeroByteDoorbell(t *testing.T) {
	s := New()
	l := NewLink(s, "l", 1000, 0.005)
	var end Time
	l.Transfer(0, func(_, en Time) { end = en })
	s.Run()
	if end != 0.005 {
		t.Errorf("doorbell landed at %v, want 0.005 (latency only)", end)
	}
}

func TestLinkStats(t *testing.T) {
	s := New()
	l := NewLink(s, "l", 1000, 0)
	l.Transfer(300, nil)
	l.Transfer(700, nil)
	s.Run()
	if l.TotalBytes() != 1000 {
		t.Errorf("stats: %v bytes, want 1000", l.TotalBytes())
	}
	if u := l.Utilization(); u < 0.99 || u > 1.0 {
		t.Errorf("utilization %v, want ~1 (wire always busy)", u)
	}
}

// TestEventRecycling pins the free-list mechanics behind the kernel's
// zero-alloc steady state: a fired event returns to the free list after
// its callback, a canceled one as soon as it is canceled, both with
// their callback dropped (so the list never pins closures), and a
// subsequent schedule reuses the same struct.
func TestEventRecycling(t *testing.T) {
	s := New()
	e1 := s.After(1, func() {})
	s.Run()
	if len(s.free) != 1 || s.free[0] != e1 {
		t.Fatalf("after firing, free list = %v, want the fired event", s.free)
	}
	if e1.fn != nil {
		t.Error("recycled event still holds its callback")
	}

	e2 := s.After(1, func() {})
	if e2 != e1 {
		t.Error("schedule after recycle allocated a fresh Event instead of reusing the free one")
	}
	e2.Cancel()
	if len(s.free) != 1 || s.free[0] != e2 {
		t.Fatalf("canceled event was not recycled at Cancel; free list = %v", s.free)
	}
	if e2.fn != nil {
		t.Error("canceled event still holds its callback")
	}
	if n := s.Pending(); n != 0 {
		t.Errorf("%d events pending after the only one was canceled, want 0", n)
	}
}

// TestSteadyStateAllocFree pins the headline: once the free lists are
// primed, schedule+fire allocates nothing, and neither does a resource
// job or a link transfer from submission to its done callback. Every case
// passes a prebuilt callback, so what is measured is the substrate's own
// bookkeeping: pooled job and transfer records, the queue ring, and the
// completion callbacks bound once per record.
func TestSteadyStateAllocFree(t *testing.T) {
	done := func(_, _ Time) {}
	for _, tc := range []struct {
		name string
		op   func(s *Sim) func()
	}{
		{"schedule+fire", func(s *Sim) func() {
			fn := func() {}
			return func() { s.After(1, fn); s.Run() }
		}},
		{"cancel+rebook", func(s *Sim) func() {
			fn := func() {}
			return func() {
				e := s.After(2, fn)
				s.After(1, fn)
				e.Cancel()
				s.After(3, fn)
				s.Run()
			}
		}},
		{"Resource.Submit idle", func(s *Sim) func() {
			r := NewResource(s, "r", 1, 1)
			return func() { r.Submit(1, done); s.Run() }
		}},
		{"Resource.Submit queued", func(s *Sim) func() {
			r := NewResource(s, "r", 1, 1)
			return func() { r.Submit(1, done); r.Submit(1, done); s.Run() }
		}},
		{"Resource.Submit across SetAvailability", func(s *Sim) func() {
			r := NewResource(s, "r", 2, 1)
			half := func() { r.SetAvailability(0.5) }
			return func() {
				r.Submit(2, done)
				r.Submit(2, done)
				s.After(1, half)
				s.Run()
				r.SetAvailability(1)
			}
		}},
		{"Resource.SubmitN idle", func(s *Sim) func() {
			r := NewResource(s, "r", 8, 1)
			return func() { r.SubmitN(8, 1, done); s.Run() }
		}},
		{"Resource.SubmitN partially busy", func(s *Sim) func() {
			r := NewResource(s, "r", 8, 1)
			return func() { r.Submit(2, done); r.SubmitN(8, 1, done); s.Run() }
		}},
		{"Link.Transfer", func(s *Sim) func() {
			l := NewLink(s, "l", 1000, 1e-3)
			return func() { l.Transfer(100, done); l.Transfer(100, done); s.Run() }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.op(New())
			op() // prime the free lists and the queue ring
			if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
				t.Errorf("steady state allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestSubmitNBooksOneEvent pins the grouping itself: the shards of one
// SubmitN that start at the same instant share one calendar entry, so a
// kernel split across every core of an idle resource books one event,
// waiting shards book none, and waiting shards that start together when
// a group finishes share one event again.
func TestSubmitNBooksOneEvent(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 8, 1)
	calls := 0
	r.SubmitN(8, 1, func(start, end Time) {
		calls++
		if start != 0 || end != 1 {
			t.Errorf("SubmitN ran [%v,%v], want [0,1]", start, end)
		}
	})
	if got := s.Pending(); got != 1 {
		t.Errorf("SubmitN(8) on an idle 8-core resource left %d pending events, want 1", got)
	}
	r.SubmitN(10, 1, nil)
	if got := s.Pending(); got != 1 || r.InFlight() != 8 || r.QueueLen() != 10 {
		t.Errorf("after a queued SubmitN(10): %d pending events, %d in flight, %d queued; want 1, 8, 10",
			got, r.InFlight(), r.QueueLen())
	}
	s.Run()
	if calls != 1 {
		t.Errorf("done called %d times, want once", calls)
	}
	// Events fire at t=1 (the first kernel), t=2 (the eight shards that
	// took its cores at t=1) and t=3 (the last two).
	if got := s.EventsFired(); got != 3 {
		t.Errorf("fired %d events, want 3", got)
	}
}

// BenchmarkResourceSubmitFinish measures a resource job from Submit to
// its done callback: a batch of 64 jobs on a 4-core resource, so most
// wait in the queue. allocs/op is the headline metric, and it should be
// zero in steady state.
func BenchmarkResourceSubmitFinish(b *testing.B) {
	const batch = 64
	s := New()
	r := NewResource(s, "r", 4, 1)
	done := func(_, _ Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			r.Submit(1, done)
		}
		s.Run()
	}
}
