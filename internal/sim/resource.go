package sim

import (
	"container/list"
	"fmt"
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

	busy    int
	queue   *list.List // of *job, FIFO
	inFly   map[*job]struct{}
	donated float64 // total work completed, for perf counters

	// stats
	totalJobs    uint64
	totalWork    float64
	busyIntegral float64 // integral of busy-core-count over time
	lastStatAt   Time
}

type job struct {
	work      float64 // remaining work units
	updatedAt Time    // when `work` was last current
	done      func(start, end Time)
	start     Time
	event     *Event
	res       *Resource
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
		queue:        list.New(),
		inFly:        make(map[*job]struct{}),
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
	for j := range r.inFly {
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
	j := &job{work: work, done: done, res: r}
	r.totalJobs++
	r.totalWork += work
	if r.busy < r.cores {
		r.startJob(j)
	} else {
		r.queue.PushBack(j)
		r.sim.rec.Sample(r.ctrQueue, r.sim.Now(), float64(r.queue.Len()))
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
	for j := range r.inFly {
		total += (now - j.updatedAt) * r.effectiveRate()
	}
	return total
}

// QueueLen returns the number of jobs waiting for a server.
func (r *Resource) QueueLen() int { return r.queue.Len() }

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
	r.inFly[j] = struct{}{}
	r.bookCompletion(j)
	r.sim.rec.Sample(r.ctrBusy, j.start, float64(r.busy))
}

func (r *Resource) bookCompletion(j *job) {
	dur := j.work / r.effectiveRate()
	j.event = r.sim.After(dur, func() { r.finishJob(j) })
}

func (r *Resource) finishJob(j *job) {
	r.accountBusy()
	now := r.sim.Now()
	r.donated += (now - j.updatedAt) * r.effectiveRate()
	delete(r.inFly, j)
	r.busy--
	if rec := r.sim.rec; rec != nil {
		rec.Span(r.name, "compute", "job", j.start, now)
		rec.Sample(r.ctrBusy, now, float64(r.busy))
	}
	if front := r.queue.Front(); front != nil {
		r.queue.Remove(front)
		r.startJob(front.Value.(*job))
		r.sim.rec.Sample(r.ctrQueue, now, float64(r.queue.Len()))
	}
	if j.done != nil {
		j.done(j.start, now)
	}
}
