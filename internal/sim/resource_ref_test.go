package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"activego/internal/trace"
)

// The reference model: Resource as it stood before shards were grouped,
// one job record and one calendar event per job, kept verbatim apart from
// the renames. The grouped Resource must reproduce it state for state.

type refResource struct {
	sim          *Sim
	name         string
	cores        int
	ratePerCore  float64 // work units per second per core at availability 1
	availability float64

	// Counter series names, precomputed so the disabled-recorder path
	// never concatenates strings.
	ctrBusy  string
	ctrQueue string

	busy  int
	queue refJobQueue // jobs waiting for a server, FIFO
	// inFly holds the jobs being served in start order, so rescheduling
	// rebooks tied completions — and CompletedWork sums progress — in
	// the same order every run.
	inFly   []*refJob
	free    []*refJob // recycled job records; see job
	donated float64   // total work completed, for perf counters

	// stats
	totalJobs    uint64
	totalWork    float64
	busyIntegral float64 // integral of busy-core-count over time
	lastStatAt   Time
}

type refJob struct {
	work      float64 // remaining work units
	updatedAt Time    // when `work` was last current
	done      func(start, end Time)
	start     Time
	event     *Event
	res       *refResource
	fire      func()
}

func (j *refJob) finish() { j.res.finishJob(j) }

// refJobQueue is a growable ring of waiting jobs.
type refJobQueue struct {
	buf        []*refJob
	head, size int
}

func (q *refJobQueue) push(j *refJob) {
	if q.size == len(q.buf) {
		buf := make([]*refJob, max(4, 2*len(q.buf)))
		n := copy(buf, q.buf[q.head:])
		copy(buf[n:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.size)%len(q.buf)] = j
	q.size++
}

func (q *refJobQueue) pop() *refJob {
	j := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return j
}

func newRefResource(s *Sim, name string, cores int, ratePerCore float64) *refResource {
	if cores <= 0 || ratePerCore <= 0 {
		panic(fmt.Sprintf("sim: resource %q needs positive cores and rate", name))
	}
	return &refResource{
		sim:          s,
		name:         name,
		cores:        cores,
		ratePerCore:  ratePerCore,
		availability: 1,
		ctrBusy:      name + ".busy_cores",
		ctrQueue:     name + ".queue_depth",
	}
}

func (r *refResource) effectiveRate() float64 {
	return r.ratePerCore * r.availability
}

func (r *refResource) SetAvailability(frac float64) {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("sim: resource %q availability %v out of (0,1]", r.name, frac))
	}
	if frac == r.availability {
		return
	}
	r.accountBusy()
	// Bring remaining work up to date at the old rate, then rebook the
	// completion event at the new rate.
	old := r.effectiveRate()
	r.availability = frac
	now := r.sim.Now()
	for _, j := range r.inFly {
		elapsed := now - j.updatedAt
		credit := elapsed * old
		if credit > j.work {
			credit = j.work
		}
		j.work -= credit
		r.donated += credit
		j.updatedAt = now
		j.event.Cancel()
		r.bookCompletion(j)
	}
}

func (r *refResource) Submit(work float64, done func(start, end Time)) {
	if work < 0 {
		panic(fmt.Sprintf("sim: resource %q negative work %v", r.name, work))
	}
	var j *refJob
	if n := len(r.free); n > 0 {
		j = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		j = &refJob{res: r}
		j.fire = j.finish
	}
	j.work, j.done = work, done
	r.totalJobs++
	r.totalWork += work
	if r.busy < r.cores {
		r.startJob(j)
	} else {
		r.queue.push(j)
		r.sim.rec.Sample(r.ctrQueue, r.sim.Now(), float64(r.queue.size))
	}
}

func (r *refResource) Utilization() float64 {
	r.accountBusy()
	if r.sim.Now() == 0 {
		return 0
	}
	return r.busyIntegral / (r.sim.Now() * float64(r.cores))
}

func (r *refResource) CompletedWork() float64 {
	total := r.donated
	now := r.sim.Now()
	for _, j := range r.inFly {
		total += (now - j.updatedAt) * r.effectiveRate()
	}
	return total
}

func (r *refResource) QueueLen() int { return r.queue.size }

func (r *refResource) InFlight() int { return r.busy }

func (r *refResource) accountBusy() {
	now := r.sim.Now()
	r.busyIntegral += float64(r.busy) * (now - r.lastStatAt)
	r.lastStatAt = now
}

func (r *refResource) startJob(j *refJob) {
	r.accountBusy()
	r.busy++
	j.start = r.sim.Now()
	j.updatedAt = j.start
	r.inFly = append(r.inFly, j)
	r.bookCompletion(j)
	r.sim.rec.Sample(r.ctrBusy, j.start, float64(r.busy))
}

func (r *refResource) bookCompletion(j *refJob) {
	dur := j.work / r.effectiveRate()
	j.event = r.sim.After(dur, j.fire)
}

func (r *refResource) finishJob(j *refJob) {
	r.accountBusy()
	now := r.sim.Now()
	r.donated += (now - j.updatedAt) * r.effectiveRate()
	i := slices.Index(r.inFly, j)
	r.inFly = slices.Delete(r.inFly, i, i+1)
	r.busy--
	if rec := r.sim.rec; rec != nil {
		rec.Span(r.name, "compute", "job", j.start, now)
		rec.Sample(r.ctrBusy, now, float64(r.busy))
	}
	if r.queue.size > 0 {
		r.startJob(r.queue.pop())
		r.sim.rec.Sample(r.ctrQueue, now, float64(r.queue.size))
	}
	done, start := j.done, j.start
	j.done, j.event = nil, nil
	r.free = append(r.free, j)
	if done != nil {
		done(start, now)
	}
}

// SubmitN is n back-to-back Submit calls, with done called once, when
// the last of them finishes, with the first one's start.
func (r *refResource) SubmitN(n int, work float64, done func(start, end Time)) {
	left, first := n, Time(0)
	for range n {
		r.Submit(work, func(start, end Time) {
			if left == n {
				first = start
			}
			if left--; left == 0 {
				done(first, end)
			}
		})
	}
}

// resourceUnderTest is the surface the schedules drive.
type resourceUnderTest interface {
	SubmitN(n int, work float64, done func(start, end Time))
	SetAvailability(frac float64)
	QueueLen() int
	InFlight() int
	CompletedWork() float64
	Utilization() float64
}

// runResourceSchedule drives one seeded schedule of SubmitN and
// SetAvailability calls against the grouped Resource (grouped true) or
// the reference, and returns the log of every observation, the
// recording, and the number of events fired. Times, works and
// availabilities come from small grids, so starts, completions and
// availability changes tie often. Every decision is a function of the
// seed and the submission's id, never of the order callbacks run in, so
// both sides make the same decisions as long as they agree.
func runResourceSchedule(seed int64, grouped bool) (log []string, recording string, events uint64) {
	rng := rand.New(rand.NewSource(seed))
	cores := []int{1, 3, 8}[rng.Intn(3)]
	works := []float64{0, 0.5, 1, 1, 2, 3, 1.0 / 3}
	fracs := []float64{0.25, 0.5, 0.75, 1}
	s := New()
	rec := trace.New()
	s.SetRecorder(rec)
	var r resourceUnderTest
	if grouped {
		r = NewResource(s, "r", cores, 1+float64(rng.Intn(3)))
	} else {
		r = newRefResource(s, "r", cores, 1+float64(rng.Intn(3)))
	}
	observe := func(what string) {
		log = append(log, fmt.Sprintf("%s now=%v queue=%d inflight=%d completed=%x util=%x",
			what, s.Now(), r.QueueLen(), r.InFlight(),
			math.Float64bits(r.CompletedWork()), math.Float64bits(r.Utilization())))
	}
	nextID := 0
	var submit func(depth int)
	submit = func(depth int) {
		id := nextID
		nextID++
		d := rand.New(rand.NewSource(seed*7919 + int64(id)))
		n := 1 + d.Intn(cores+3)
		work := works[d.Intn(len(works))]
		follow, frac, delay := d.Float64(), fracs[d.Intn(len(fracs))], works[d.Intn(len(works))]
		r.SubmitN(n, work, func(start, end Time) {
			log = append(log, fmt.Sprintf("task %d n=%d work=%v ran [%v,%v]", id, n, work, start, end))
			switch {
			case depth < 3 && follow < 0.25:
				submit(depth + 1)
			case follow < 0.4:
				r.SetAvailability(frac)
			case follow < 0.5:
				submit(depth + 1)
				r.SetAvailability(frac)
			case depth < 3 && follow < 0.7:
				// An event that is not the resource's, booked
				// between starts at one instant.
				s.After(delay, func() { submit(depth + 1) })
			}
			observe(fmt.Sprintf("after task %d", id))
		})
		observe(fmt.Sprintf("submit %d", id))
	}
	for range 5 + rng.Intn(20) {
		at := float64(rng.Intn(12)) / 2
		switch p := rng.Float64(); {
		case p < 0.65:
			s.At(at, func() { submit(0) })
		case p < 0.9:
			frac := fracs[rng.Intn(len(fracs))]
			s.At(at, func() { r.SetAvailability(frac); observe("availability") })
		default:
			s.At(at, func() { observe("probe") })
		}
	}
	s.Run()
	observe("end")
	var b strings.Builder
	for _, sp := range rec.Spans() {
		fmt.Fprintf(&b, "span %s/%s/%s [%x,%x]\n", sp.Component, sp.Category, sp.Name,
			math.Float64bits(sp.Start), math.Float64bits(sp.End))
	}
	for _, c := range rec.Counters() {
		fmt.Fprintf(&b, "series %s:", c.Name)
		for _, p := range c.Samples {
			fmt.Fprintf(&b, " %x=%v", math.Float64bits(p.At), p.Value)
		}
		b.WriteByte('\n')
	}
	return log, b.String(), s.EventsFired()
}

// TestGroupedResourceMatchesReference drives the grouped Resource and the
// per-job reference through the same seeded schedules on 1, 3 and 8
// cores: SubmitN of 1 to cores+3 shards with tie-prone work, availability
// changes at the same instants as starts and from inside done, and
// SubmitN nested inside done. Each task's first start and last end,
// QueueLen, InFlight, CompletedWork and Utilization after every action,
// and the recording's spans and counter series must match bit for bit,
// and the grouped Resource must fire no more events than the reference.
func TestGroupedResourceMatchesReference(t *testing.T) {
	var gotEvents, wantEvents uint64
	for seed := int64(1); seed <= 1000; seed++ {
		want, wantRec, wantN := runResourceSchedule(seed, false)
		got, gotRec, gotN := runResourceSchedule(seed, true)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: grouped Resource diverged from the reference\ngot\n%s\nwant\n%s",
				seed, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if gotRec != wantRec {
			t.Fatalf("seed %d: recordings differ\ngot\n%s\nwant\n%s", seed, gotRec, wantRec)
		}
		if gotN > wantN {
			t.Fatalf("seed %d: grouped Resource fired %d events, the reference %d", seed, gotN, wantN)
		}
		gotEvents += gotN
		wantEvents += wantN
	}
	if gotEvents == wantEvents {
		t.Errorf("grouped Resource fired as many events as the reference (%d): no shards were grouped", wantEvents)
	}
	t.Logf("events fired: %d grouped, %d reference", gotEvents, wantEvents)
}
