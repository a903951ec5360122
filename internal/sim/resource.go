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

	busy  int
	queue jobQueue // jobs waiting for a server, FIFO
	// inFly holds the jobs being served in start order, so rescheduling
	// rebooks tied completions — and CompletedWork sums progress — in
	// the same order every run.
	inFly   []*job
	free    []*job  // recycled job records; see job
	donated float64 // total work completed, for perf counters

	// stats
	totalJobs    uint64
	totalWork    float64
	busyIntegral float64 // integral of busy-core-count over time
	lastStatAt   Time
}

// job is one submitted unit of work. Records are pooled on their
// Resource: a finished job returns to the pool before its done callback
// runs, so done receives the service interval by value and a Submit from
// inside done may reuse the record at once. fire is the record's
// completion callback, bound once when the record is first allocated, so
// booking a completion allocates nothing.
type job struct {
	work      float64 // remaining work units
	updatedAt Time    // when `work` was last current
	done      func(start, end Time)
	start     Time
	event     *Event
	res       *Resource
	fire      func()
}

func (j *job) finish() { j.res.finishJob(j) }

// jobQueue is a growable ring of waiting jobs.
type jobQueue struct {
	buf        []*job
	head, size int
}

func (q *jobQueue) push(j *job) {
	if q.size == len(q.buf) {
		buf := make([]*job, max(4, 2*len(q.buf)))
		n := copy(buf, q.buf[q.head:])
		copy(buf[n:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.size)%len(q.buf)] = j
	q.size++
}

func (q *jobQueue) pop() *job {
	j := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return j
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
		r.donated += credit
		j.updatedAt = now
		j.event.Cancel()
		r.bookCompletion(j)
	}
}

// Submit enqueues a job of `work` units. done is called when the job
// completes, with the job's service start and end times. Jobs are served
// FIFO across `cores` servers.
func (r *Resource) Submit(work float64, done func(start, end Time)) {
	if work < 0 {
		panic(fmt.Sprintf("sim: resource %q negative work %v", r.name, work))
	}
	var j *job
	if n := len(r.free); n > 0 {
		j = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		j = &job{res: r}
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
		total += (now - j.updatedAt) * r.effectiveRate()
	}
	return total
}

// QueueLen returns the number of jobs waiting for a server.
func (r *Resource) QueueLen() int { return r.queue.size }

// InFlight returns the number of jobs currently being served.
func (r *Resource) InFlight() int { return r.busy }

func (r *Resource) accountBusy() {
	now := r.sim.Now()
	r.busyIntegral += float64(r.busy) * (now - r.lastStatAt)
	r.lastStatAt = now
}

func (r *Resource) startJob(j *job) {
	r.accountBusy()
	r.busy++
	j.start = r.sim.Now()
	j.updatedAt = j.start
	r.inFly = append(r.inFly, j)
	r.bookCompletion(j)
	r.sim.rec.Sample(r.ctrBusy, j.start, float64(r.busy))
}

func (r *Resource) bookCompletion(j *job) {
	dur := j.work / r.effectiveRate()
	j.event = r.sim.After(dur, j.fire)
}

func (r *Resource) finishJob(j *job) {
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
