// Package nvme models NVMe-style paired submission/completion queues.
//
// ActivePy reuses the NVMe queue-pair mechanism for CSD function calls
// (§III-C-b): the host posts an entry to a call queue mapped in device
// memory, the CSE fetches requests whenever it is free, and status updates
// flow back through the completion queue. This package provides that
// mechanism for both plain block I/O and ActivePy's function-call and
// status traffic.
//
// Timing: posting a submission entry moves one 64-byte SQE plus a doorbell
// write across the host-device link; a completion moves a 16-byte CQE
// back. Queue depth bounds the number of in-flight commands; the rest wait
// in a host-side software queue, FIFO.
//
// Failure semantics: a queue pair can be armed with a fault.Plan (lost
// commands, dropped completions) and a RetryPolicy. With a policy set,
// every issued command carries a host-side completion timer; on expiry the
// host abandons the command (a late completion is discarded, like a real
// driver's abort), re-issues it after exponential backoff, and after
// MaxAttempts surfaces a StatusTimeout completion to the submitter.
// SubmitDeadline adds an absolute per-command budget on top: the
// completion timer never fires past the deadline, no retry is scheduled
// that would start past it, and the submitter sees StatusDeadline once
// the budget is spent. With no policy, no deadline, and no faults the
// queue pair behaves — event for event — exactly as the fault-free model
// did.
package nvme

import (
	"fmt"

	"activego/internal/fault"
	"activego/internal/metrics"
	"activego/internal/sim"
	"activego/internal/trace"
)

// SQE and CQE sizes in bytes, per the NVMe specification.
const (
	SQESize = 64
	CQESize = 16
)

// Completion status codes. Zero is success; the non-zero values follow
// the spirit of the NVMe status field (generic command status and media
// errors) without reproducing the full code space.
const (
	StatusOK            uint16 = 0x0
	StatusInvalidField  uint16 = 0x2   // malformed command (bad payload)
	StatusInvalidOpcode uint16 = 0x1   // unknown opcode
	StatusAborted       uint16 = 0x4   // command aborted (device reset)
	StatusTimeout       uint16 = 0x5   // host-side completion timer expired, retries exhausted
	StatusDeadline      uint16 = 0x6   // per-command deadline passed; the host stopped waiting
	StatusMediaError    uint16 = 0x281 // unrecovered read error (UECC)
)

// Opcode identifies the command type.
type Opcode uint8

// Command opcodes. Read/Write are classic block I/O; Call, Status and
// Preempt are ActivePy's function-call protocol on the same mechanism.
const (
	OpRead    Opcode = iota // read Bytes from storage object
	OpWrite                 // write Bytes to storage object
	OpCall                  // invoke a CSD function
	OpStatus                // CSD -> host execution-rate report
	OpPreempt               // host -> CSD: stop at next line boundary
	OpAdmin                 // identify/configure
)

func (o Opcode) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCall:
		return "call"
	case OpStatus:
		return "status"
	case OpPreempt:
		return "preempt"
	case OpAdmin:
		return "admin"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Command is one submission queue entry.
type Command struct {
	Opcode  Opcode
	Object  string // storage object name for I/O
	Offset  int64
	Bytes   int64
	Payload any // function-call descriptor for OpCall
}

// Completion is one completion queue entry.
type Completion struct {
	Status    uint16 // 0 = success
	Value     any
	Submitted sim.Time
	Started   sim.Time
	Completed sim.Time
}

// Handler executes a command on the device side and must call complete
// exactly once (possibly after scheduling further simulated work).
type Handler func(cmd Command, submitted sim.Time, complete func(Completion))

// RetryPolicy configures host-side command supervision. The zero value
// disables it entirely (no timers, no retries) — the fault-free fast
// path.
type RetryPolicy struct {
	// Timeout is the per-command completion timer; 0 disables
	// supervision. It must exceed the longest legitimate command service
	// time or healthy long commands will be spuriously aborted.
	Timeout float64
	// MaxAttempts is the total number of issue attempts per command,
	// including the first; values below 1 mean 1.
	MaxAttempts int
	// Backoff is the delay before the second attempt; it doubles on each
	// further retry (exponential backoff).
	Backoff float64
}

func (rp RetryPolicy) maxAttempts() int {
	if rp.MaxAttempts < 1 {
		return 1
	}
	return rp.MaxAttempts
}

// QueuePair is one SQ/CQ pair bound to a link and a device handler.
type QueuePair struct {
	sim     *sim.Sim
	link    *sim.Link
	depth   int
	handler Handler
	faults  *fault.Plan
	retry   RetryPolicy

	inFlight   int
	soft       []pending // host-side software queue when SQ is full
	live       []*issued // device-owned commands, issue order
	cqInFlight int       // completion entries crossing back over the link
	free       []*issued // released command records; see issued

	submitted uint64
	completed uint64
	timeouts  uint64
	retries   uint64
	dropped   uint64 // injected completion drops
	lost      uint64 // injected command losses
	aborted   uint64 // commands failed by AbortAll (device reset)
	deadlined uint64 // commands abandoned at their deadline
}

type pending struct {
	cmd      Command
	when     sim.Time
	deadline sim.Time // absolute give-up instant; 0 = none
	done     func(Completion)
	attempt  int // issue attempts already consumed
}

// issued is one issue of a command, owned by two sides. The host owns it
// until it settles the command: settled flips exactly once, on the CQE
// landing, a timer expiry or an abort, and every later signal for the
// command (a late completion, a stale timer) is discarded against it.
// The device side owns it from the SQE crossing until the SQE lands after
// a settle, the command is lost, the completion is dropped, a late
// completion is discarded, or the CQE lands.
//
// Records are pooled on their QueuePair and go back to the pool only when
// both sides have let go, so no device signal ever lands on a reused
// record. Each record binds its timer, SQE-landed, device-done and
// CQE-landed continuations once, when it is first allocated, so issuing a
// command allocates nothing in steady state.
type issued struct {
	q       *QueuePair
	p       pending
	timer   *sim.Event
	gen     uint64     // issues this record has carried; see AbortAll
	arrive  sim.Time   // when the SQE landed on the device
	c       Completion // the device's completion while its CQE crosses back
	settled bool
	stage   stage

	expired              func()
	sqeLanded, cqeLanded func(start, end sim.Time)
	complete             func(Completion)
}

// stage is where the device side of an issued command is.
type stage uint8

const (
	stageSQE    stage = iota // the SQE is crossing to the device
	stageDevice              // the handler owns the command
	stageCQE                 // the CQE is crossing back to the host
	stageDone                // the device side let go
)

// NewQueuePair creates a queue pair of the given depth over link, served
// by handler on the device side.
func NewQueuePair(s *sim.Sim, link *sim.Link, depth int, handler Handler) *QueuePair {
	if depth <= 0 {
		panic("nvme: queue depth must be positive")
	}
	if handler == nil {
		panic("nvme: nil handler")
	}
	return &QueuePair{sim: s, link: link, depth: depth, handler: handler}
}

// SetFaults arms the queue pair with plan's NVMe injection points. A nil
// plan disarms it.
func (q *QueuePair) SetFaults(plan *fault.Plan) { q.faults = plan }

// SetRetryPolicy installs host-side command supervision; see RetryPolicy.
func (q *QueuePair) SetRetryPolicy(rp RetryPolicy) { q.retry = rp }

// InFlight returns commands currently owned by the device.
func (q *QueuePair) InFlight() int { return q.inFlight }

// SoftQueued returns commands waiting in the host software queue.
func (q *QueuePair) SoftQueued() int { return len(q.soft) }

// Stats returns cumulative submitted/completed counts.
func (q *QueuePair) Stats() (submitted, completed uint64) {
	return q.submitted, q.completed
}

// FaultStats returns the cumulative failure-path counters: completion
// timer expiries, command re-issues, injected completion drops, injected
// command losses, and reset-aborted commands.
func (q *QueuePair) FaultStats() (timeouts, retries, dropped, lost, aborted uint64) {
	return q.timeouts, q.retries, q.dropped, q.lost, q.aborted
}

// Deadlined returns how many commands were abandoned at their deadline,
// i.e. finished with a synthesized StatusDeadline completion.
func (q *QueuePair) Deadlined() uint64 { return q.deadlined }

// Submit posts cmd; done fires on the host side when the completion entry
// has crossed back over the link (or, under a RetryPolicy, when the host
// gives up on the command and synthesizes a failure completion).
func (q *QueuePair) Submit(cmd Command, done func(Completion)) {
	q.SubmitDeadline(cmd, 0, done)
}

// SubmitDeadline is Submit with an absolute per-command deadline in
// simulated time. Once the clock reaches deadline the host stops
// waiting: the in-flight attempt is abandoned exactly like a completion
// timer expiry (the completion timer is shortened to fire no later than
// the deadline), no further retries are scheduled, and the submitter
// sees a synthesized StatusDeadline completion. A zero deadline disables
// the budget, making SubmitDeadline(cmd, 0, done) identical to Submit.
// Deadlines work with or without a RetryPolicy — an unsupervised command
// still gets a timer at its deadline, so a deadlined command can never
// strand the queue pair.
func (q *QueuePair) SubmitDeadline(cmd Command, deadline sim.Time, done func(Completion)) {
	q.submitted++
	q.enqueue(pending{cmd: cmd, when: q.sim.Now(), deadline: deadline, done: done})
}

func (q *QueuePair) enqueue(p pending) {
	if q.inFlight >= q.depth {
		q.soft = append(q.soft, p)
		q.sim.Recorder().Sample(metrics.SeriesNVMeSoftQueue, q.sim.Now(), float64(len(q.soft)))
		return
	}
	q.issue(p)
}

func (q *QueuePair) issue(p pending) {
	if p.deadline > 0 && q.sim.Now() >= p.deadline {
		// The deadline passed while the command sat in the software queue
		// (or between retry attempts): abandon it without consuming a
		// hardware slot.
		q.deadlined++
		if p.done != nil {
			p.done(Completion{Status: StatusDeadline, Submitted: p.when, Completed: q.sim.Now()})
		}
		return
	}
	q.inFlight++
	q.sim.Recorder().Sample(metrics.SeriesNVMeSQDepth, q.sim.Now(), float64(q.inFlight))
	is := q.acquire(p)
	q.live = append(q.live, is)
	timeout := q.retry.Timeout
	if p.deadline > 0 {
		if remain := p.deadline - q.sim.Now(); timeout <= 0 || remain < timeout {
			timeout = remain
		}
	}
	if timeout > 0 {
		is.timer = q.sim.After(timeout, is.expired)
	}
	// SQE + doorbell crossing to the device.
	q.link.Transfer(SQESize, is.sqeLanded)
}

// acquire takes a command record from the pool, or allocates one and
// binds its continuations.
func (q *QueuePair) acquire(p pending) *issued {
	var is *issued
	if n := len(q.free); n > 0 {
		is = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		is = &issued{q: q}
		is.expired = is.onTimer
		is.sqeLanded = is.onSQE
		is.complete = is.onComplete
		is.cqeLanded = is.onCQE
	}
	is.p, is.settled, is.stage = p, false, stageSQE
	is.gen++
	return is
}

// letGo records that the device side is done with is.
func (q *QueuePair) letGo(is *issued) {
	is.stage = stageDone
	q.release(is)
}

// release returns is to the pool once the host has settled it and the
// device side has let go of it. The record drops its command and
// callbacks, so the pool pins nothing a caller handed in.
func (q *QueuePair) release(is *issued) {
	if !is.settled || is.stage != stageDone {
		return
	}
	is.p, is.c = pending{}, Completion{}
	q.free = append(q.free, is)
}

func (is *issued) onTimer() { is.q.expire(is) }

func (is *issued) onSQE(_, arrive sim.Time) {
	q := is.q
	if is.settled {
		q.letGo(is)
		return // host aborted while the SQE was on the wire
	}
	if q.faults.Decide(fault.NVMeCommandLoss, q.sim.Now()) {
		// The command vanishes before the device parses it; only the
		// completion timer (if armed) recovers the slot.
		q.lost++
		q.letGo(is)
		return
	}
	is.arrive = arrive
	is.stage = stageDevice
	q.handler(is.p.cmd, is.p.when, is.complete)
}

func (is *issued) onComplete(c Completion) {
	q := is.q
	if is.stage != stageDevice {
		panic("nvme: handler completed a command twice")
	}
	if is.settled {
		q.letGo(is)
		return // late completion of an aborted command: discarded
	}
	if c.Status == StatusOK && q.faults.Decide(fault.NVMeCompletionDrop, q.sim.Now()) {
		q.dropped++
		q.letGo(is)
		return
	}
	c.Submitted = is.p.when
	if c.Started == 0 {
		c.Started = is.arrive
	}
	// CQE crossing back to the host.
	q.cqInFlight++
	q.sim.Recorder().Sample(metrics.SeriesNVMeCQInFlight, q.sim.Now(), float64(q.cqInFlight))
	is.c = c
	is.stage = stageCQE
	q.link.Transfer(CQESize, is.cqeLanded)
}

func (is *issued) onCQE(_, landed sim.Time) {
	q := is.q
	q.cqInFlight--
	q.sim.Recorder().Sample(metrics.SeriesNVMeCQInFlight, landed, float64(q.cqInFlight))
	if is.settled {
		q.letGo(is)
		return // host timed out while the CQE was on the wire
	}
	// Both sides let go here, so settle releases the record: read what
	// the submitter needs first.
	p, c := is.p, is.c
	is.stage = stageDone
	q.settle(is)
	if rec := q.sim.Recorder(); rec != nil {
		rec.Span("nvme", "nvme", p.cmd.Opcode.String(), p.when, landed,
			trace.Arg{Key: "status", Value: c.Status},
			trace.Arg{Key: "attempt", Value: p.attempt + 1})
	}
	c.Completed = landed
	q.completed++
	if p.done != nil {
		p.done(c)
	}
}

// settle releases is's hardware slot exactly once: stop its timer, free
// the queue entry, return the record to the pool if the device side is
// done with it too, and pull the next software-queued command in.
func (q *QueuePair) settle(is *issued) {
	is.settled = true
	if is.timer != nil {
		is.timer.Cancel()
		is.timer = nil
	}
	for i, v := range q.live {
		if v == is {
			q.live = append(q.live[:i], q.live[i+1:]...)
			break
		}
	}
	q.release(is)
	q.inFlight--
	q.sim.Recorder().Sample(metrics.SeriesNVMeSQDepth, q.sim.Now(), float64(q.inFlight))
	// Pull software-queued commands in; issue can decline one whose
	// deadline already passed without taking the slot, so keep pulling
	// until the slot is filled or the queue empties.
	for q.inFlight < q.depth && len(q.soft) > 0 {
		next := q.soft[0]
		q.soft = q.soft[1:]
		q.sim.Recorder().Sample(metrics.SeriesNVMeSoftQueue, q.sim.Now(), float64(len(q.soft)))
		q.issue(next)
	}
}

// expire handles a completion-timer expiry: abandon the command and run
// the retry ladder. A timer that fired at (or past) the command's
// deadline reports StatusDeadline — the host gave up by policy, not
// because the device looked dead.
func (q *QueuePair) expire(is *issued) {
	if is.settled {
		return
	}
	q.timeouts++
	q.sim.Recorder().Instant("nvme", "fault", "nvme-timeout", q.sim.Now())
	status := StatusTimeout
	if d := is.p.deadline; d > 0 && q.sim.Now() >= d {
		status = StatusDeadline
	}
	q.fail(is, status)
}

// fail abandons is and either re-issues its command after exponential
// backoff or, with attempts exhausted (or the deadline leaving no room
// for another attempt), delivers a synthesized failure completion to the
// submitter.
func (q *QueuePair) fail(is *issued, status uint16) {
	if is.settled {
		return
	}
	p := is.p // settle may hand the record to the next command
	q.settle(is)
	if p.attempt+1 < q.retry.maxAttempts() {
		backoff := q.retry.Backoff * float64(uint64(1)<<uint(p.attempt))
		if p.deadline == 0 || q.sim.Now()+backoff < p.deadline {
			p.attempt++
			q.retries++
			q.sim.Recorder().Instant("nvme", "fault", "nvme-retry", q.sim.Now())
			q.sim.After(backoff, func() { q.enqueue(p) })
			return
		}
		// Retry budget remains, but the next attempt would start past the
		// deadline: stop here and surface the budget exhaustion.
		status = StatusDeadline
	} else if p.deadline > 0 && q.sim.Now() >= p.deadline {
		status = StatusDeadline
	}
	if status == StatusDeadline {
		q.deadlined++
	}
	if p.done != nil {
		p.done(Completion{Status: status, Submitted: p.when, Completed: q.sim.Now()})
	}
}

// AbortAll fails every device-owned command with the given status — the
// controller-reset path. Each aborted command still walks the retry
// ladder, so with a RetryPolicy armed the host re-drives it once the
// device returns. The walk covers a snapshot of the live commands; one
// settled before the walk reaches it (by a completion callback the walk
// ran) is skipped, and so is its record if it was already reused.
func (q *QueuePair) AbortAll(status uint16) {
	type snap struct {
		is  *issued
		gen uint64
	}
	live := make([]snap, len(q.live))
	for i, is := range q.live {
		live[i] = snap{is, is.gen}
	}
	for _, l := range live {
		if l.is.settled || l.is.gen != l.gen {
			continue
		}
		q.aborted++
		q.fail(l.is, status)
	}
}
