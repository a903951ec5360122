package sim

import (
	"fmt"
	"slices"
)

// Resource models a compute unit: a bank of identical servers (cores) that
// drain abstract "work units" at a fixed per-core rate. The CSE inside a
// CSD and the host CPU are both Resources with different rates.
//
// Availability models contention from co-tenants (other applications,
// garbage collection): an availability of 0.4 means the resource delivers
// 40% of its nominal rate to this simulation's jobs, exactly the quantity
// the paper sweeps in Figures 2 and 5. Changing availability rescales the
// completion times of in-flight jobs, so a mid-job stress arrival behaves
// the way a real co-scheduled tenant would.
type Resource struct {
	sim          *Sim
	name         string
	cores        int
	ratePerCore  float64 // work units per second per core at availability 1
	availability float64

	// Counter series names, precomputed so the disabled-recorder path
	// never concatenates strings.
	ctrBusy  string
	ctrQueue string

	busy   int
	queued int       // shards waiting for a server
	queue  taskQueue // tasks with shards waiting for a server, FIFO
	// inFly holds the shard groups being served in start order, so
	// rescheduling rebooks tied completions — and CompletedWork sums
	// progress — in the same order every run.
	inFly     []*job
	free      []*job  // recycled group records; see job
	freeTasks []*task // recycled task records; see task
	donated   float64 // total work completed, for perf counters

	busyIntegral float64 // integral of busy-core-count over time
	lastStatAt   Time
}

// task is one SubmitN call: n shards of equal work, and the callback due
// when the last of them finishes. Tasks are pooled on their Resource and
// return to the pool before done runs.
type task struct {
	work   float64 // per shard
	n      int
	left   int  // shards not yet finished
	queued int  // shards not yet started
	start  Time // when the first shard started
	done   func(start, end Time)
}

// job is a group of k shards of one task that started at the same
// instant and share one completion event. A shard joins the group at the
// tail of inFly only if that group is its task's, started now with the
// same work, and its event is the last one booked: then the shard's own
// event would have fired right after the group's, at the same instant.
// Every shard of a group has the same start, work and progress, so the
// group never splits, and firing it runs each shard's bookkeeping in
// turn.
//
// Records are pooled on their Resource: a finished group returns to the
// pool before its task's done callback runs, so done receives the service
// interval by value and a Submit from inside done may reuse the record at
// once. fire is the record's completion callback, bound once when the
// record is first allocated, so booking a completion allocates nothing.
type job struct {
	task      *task
	k         int
	work      float64 // remaining work units per shard
	updatedAt Time    // when `work` was last current
	start     Time
	event     *Event
	res       *Resource
	fire      func()
}

func (j *job) finish() { j.res.finishJob(j) }

// taskQueue is a growable ring of tasks with waiting shards.
type taskQueue struct {
	buf        []*task
	head, size int
}

func (q *taskQueue) push(t *task) {
	if q.size == len(q.buf) {
		buf := make([]*task, max(4, 2*len(q.buf)))
		n := copy(buf, q.buf[q.head:])
		copy(buf[n:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.size)%len(q.buf)] = t
	q.size++
}

func (q *taskQueue) pop() {
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.size--
}

// NewResource creates a resource with the given core count and per-core
// service rate (work units per second). Availability starts at 1.
func NewResource(s *Sim, name string, cores int, ratePerCore float64) *Resource {
	if cores <= 0 || ratePerCore <= 0 {
		panic(fmt.Sprintf("sim: resource %q needs positive cores and rate", name))
	}
	return &Resource{
		sim:          s,
		name:         name,
		cores:        cores,
		ratePerCore:  ratePerCore,
		availability: 1,
		ctrBusy:      name + ".busy_cores",
		ctrQueue:     name + ".queue_depth",
	}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Cores returns the number of servers.
func (r *Resource) Cores() int { return r.cores }

// Rate returns the nominal per-core rate in work units per second.
func (r *Resource) Rate() float64 { return r.ratePerCore }

// Availability returns the current availability fraction in (0, 1].
func (r *Resource) Availability() float64 { return r.availability }

// effectiveRate is the current work-units-per-second delivered to one job.
func (r *Resource) effectiveRate() float64 {
	return r.ratePerCore * r.availability
}

// SetAvailability changes the fraction of the resource delivered to
// simulated jobs and reschedules all in-flight completions accordingly.
// frac must be in (0, 1].
func (r *Resource) SetAvailability(frac float64) {
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
		for range j.k {
			r.donated += credit
		}
		j.updatedAt = now
		j.event.Cancel()
		r.bookCompletion(j)
	}
}

// Submit enqueues a job of `work` units. done is called when the job
// completes, with the job's service start and end times. Jobs are served
// FIFO across `cores` servers.
func (r *Resource) Submit(work float64, done func(start, end Time)) {
	r.SubmitN(1, work, done)
}

// SubmitN enqueues n jobs of `work` units each, exactly as n back-to-back
// Submit calls would, and calls done once, when the last of them
// finishes, with the first one's start and the last one's end. Shards
// that start at the same instant share one calendar event (see job), so
// a data-parallel kernel split across the cores costs one event, not one
// per core.
func (r *Resource) SubmitN(n int, work float64, done func(start, end Time)) {
	if n < 1 || work < 0 {
		panic(fmt.Sprintf("sim: resource %q needs n >= 1 and non-negative work, got %d x %v", r.name, n, work))
	}
	var t *task
	if m := len(r.freeTasks); m > 0 {
		t = r.freeTasks[m-1]
		r.freeTasks = r.freeTasks[:m-1]
	} else {
		t = &task{}
	}
	t.work, t.n, t.left, t.queued, t.done = work, n, n, n, done
	for t.queued > 0 && r.busy < r.cores {
		r.startShard(t)
	}
	if t.queued == 0 {
		return
	}
	r.queue.push(t)
	for range t.queued {
		r.queued++
		r.sim.rec.Sample(r.ctrQueue, r.sim.Now(), float64(r.queued))
	}
}

// Utilization returns average busy cores divided by total cores from time
// zero to now.
func (r *Resource) Utilization() float64 {
	r.accountBusy()
	if r.sim.Now() == 0 {
		return 0
	}
	return r.busyIntegral / (r.sim.Now() * float64(r.cores))
}

// CompletedWork returns total work units drained so far, counting partial
// progress of in-flight jobs. This backs the CSD's "retired instructions"
// performance counter.
func (r *Resource) CompletedWork() float64 {
	total := r.donated
	now := r.sim.Now()
	for _, j := range r.inFly {
		progress := (now - j.updatedAt) * r.effectiveRate()
		for range j.k {
			total += progress
		}
	}
	return total
}

// QueueLen returns the number of jobs waiting for a server.
func (r *Resource) QueueLen() int { return r.queued }

// InFlight returns the number of jobs currently being served.
func (r *Resource) InFlight() int { return r.busy }

func (r *Resource) accountBusy() {
	now := r.sim.Now()
	r.busyIntegral += float64(r.busy) * (now - r.lastStatAt)
	r.lastStatAt = now
}

// startShard starts t's next shard on a free server, in the group at the
// tail of inFly when the shard may join it (see job).
func (r *Resource) startShard(t *task) {
	r.accountBusy()
	r.busy++
	now := r.sim.Now()
	if t.queued == t.n {
		t.start = now
	}
	t.queued--
	var g *job
	if n := len(r.inFly); n > 0 {
		g = r.inFly[n-1]
	}
	if g == nil || g.task != t || g.start != now || g.work != t.work || g.event.seq+1 != r.sim.seq {
		if m := len(r.free); m > 0 {
			g = r.free[m-1]
			r.free = r.free[:m-1]
		} else {
			g = &job{res: r}
			g.fire = g.finish
		}
		g.task, g.k, g.work, g.start, g.updatedAt = t, 0, t.work, now, now
		r.inFly = append(r.inFly, g)
		r.bookCompletion(g)
	}
	g.k++
	r.sim.rec.Sample(r.ctrBusy, now, float64(r.busy))
}

func (r *Resource) bookCompletion(j *job) {
	dur := j.work / r.effectiveRate()
	j.event = r.sim.After(dur, j.fire)
}

// finishJob retires a group: each shard's bookkeeping runs in turn, in
// the order the shards' own events would have fired, and each freed
// server pulls the next waiting shard. The task's done runs after the
// group that held its last shards.
func (r *Resource) finishJob(j *job) {
	now := r.sim.Now()
	i := slices.Index(r.inFly, j)
	r.inFly = slices.Delete(r.inFly, i, i+1)
	for range j.k {
		r.accountBusy()
		r.donated += (now - j.updatedAt) * r.effectiveRate()
		r.busy--
		if rec := r.sim.rec; rec != nil {
			rec.Span(r.name, "compute", "job", j.start, now)
			rec.Sample(r.ctrBusy, now, float64(r.busy))
		}
		if r.queue.size > 0 {
			next := r.queue.buf[r.queue.head]
			if next.queued == 1 {
				r.queue.pop()
			}
			r.queued--
			r.startShard(next)
			r.sim.rec.Sample(r.ctrQueue, now, float64(r.queued))
		}
	}
	t := j.task
	t.left -= j.k
	j.task, j.event = nil, nil
	r.free = append(r.free, j)
	if t.left > 0 {
		return
	}
	done, start := t.done, t.start
	t.done = nil
	r.freeTasks = append(r.freeTasks, t)
	if done != nil {
		done(start, now)
	}
}
