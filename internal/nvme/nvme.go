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

// DefaultRetryPolicy is a supervision policy suited to the simulated
// platform's command service times (line-granularity CSD calls run for
// milliseconds at experiment scale).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Timeout: 50e-3, MaxAttempts: 4, Backoff: 1e-3}
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

// issued is one command the hardware queue currently owns. settled flips
// exactly once — on normal completion, timer expiry, or abort — and every
// later signal for the command (a late CQE, a stale timer) is discarded
// against it.
type issued struct {
	p       pending
	timer   *sim.Event
	settled bool
}

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

// RetryPolicy returns the installed supervision policy.
func (q *QueuePair) RetryPolicy() RetryPolicy { return q.retry }

// Depth returns the hardware queue depth.
func (q *QueuePair) Depth() int { return q.depth }

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
	is := &issued{p: p}
	q.live = append(q.live, is)
	timeout := q.retry.Timeout
	if p.deadline > 0 {
		if remain := p.deadline - q.sim.Now(); timeout <= 0 || remain < timeout {
			timeout = remain
		}
	}
	if timeout > 0 {
		is.timer = q.sim.AfterNamed(timeout, "nvme-timeout", func() { q.expire(is) })
	}
	// SQE + doorbell crossing to the device.
	q.link.Transfer(SQESize, func(_, arrive sim.Time) {
		if is.settled {
			return // host aborted while the SQE was on the wire
		}
		if q.faults.Decide(fault.NVMeCommandLoss, q.sim.Now()) {
			// The command vanishes before the device parses it; only the
			// completion timer (if armed) recovers the slot.
			q.lost++
			return
		}
		q.handler(p.cmd, p.when, func(c Completion) {
			if is.settled {
				return // late completion of an aborted command: discarded
			}
			if c.Status == StatusOK && q.faults.Decide(fault.NVMeCompletionDrop, q.sim.Now()) {
				q.dropped++
				return
			}
			c.Submitted = p.when
			if c.Started == 0 {
				c.Started = arrive
			}
			// CQE crossing back to the host.
			q.cqInFlight++
			q.sim.Recorder().Sample(metrics.SeriesNVMeCQInFlight, q.sim.Now(), float64(q.cqInFlight))
			q.link.Transfer(CQESize, func(_, landed sim.Time) {
				q.cqInFlight--
				q.sim.Recorder().Sample(metrics.SeriesNVMeCQInFlight, landed, float64(q.cqInFlight))
				if is.settled {
					return // host timed out while the CQE was on the wire
				}
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
			})
		})
	})
}

// settle releases is's hardware slot exactly once: stop its timer, free
// the queue entry, and pull the next software-queued command in.
func (q *QueuePair) settle(is *issued) {
	is.settled = true
	if is.timer != nil {
		is.timer.Cancel()
	}
	for i, v := range q.live {
		if v == is {
			q.live = append(q.live[:i], q.live[i+1:]...)
			break
		}
	}
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
	q.settle(is)
	p := is.p
	if p.attempt+1 < q.retry.maxAttempts() {
		backoff := q.retry.Backoff * float64(uint64(1)<<uint(p.attempt))
		if p.deadline == 0 || q.sim.Now()+backoff < p.deadline {
			p.attempt++
			q.retries++
			q.sim.Recorder().Instant("nvme", "fault", "nvme-retry", q.sim.Now())
			q.sim.AfterNamed(backoff, "nvme-retry", func() { q.enqueue(p) })
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
// device returns.
func (q *QueuePair) AbortAll(status uint16) {
	live := append([]*issued(nil), q.live...)
	for _, is := range live {
		if is.settled {
			continue
		}
		q.aborted++
		q.fail(is, status)
	}
}
