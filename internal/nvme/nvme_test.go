package nvme

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"activego/internal/fault"
	"activego/internal/metrics"
	"activego/internal/sim"
	"activego/internal/trace"
)

// supervised is a supervision policy suited to the simulated platform's
// command service times (line-granularity CSD calls run for
// milliseconds at experiment scale).
var supervised = RetryPolicy{Timeout: 50e-3, MaxAttempts: 4, Backoff: 1e-3}

func echoHandler(delay float64, s *sim.Sim) Handler {
	return func(cmd Command, _ sim.Time, complete func(Completion)) {
		s.After(delay, func() { complete(Completion{Value: cmd.Opcode}) })
	}
}

func TestSubmitCompleteRoundTrip(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e9, 1e-6)
	qp := NewQueuePair(s, link, 4, echoHandler(1e-4, s))
	var done Completion
	qp.Submit(Command{Opcode: OpRead}, func(c Completion) { done = c })
	s.Run()
	if done.Value != OpRead {
		t.Errorf("completion value %v", done.Value)
	}
	// Latency = SQE crossing + handler delay + CQE crossing, each paying
	// the 1us link latency plus serialization.
	wall := done.Completed - done.Submitted
	if wall < 1.02e-4 || wall > 1.04e-4 {
		t.Errorf("round trip %v, want ~1.02e-4", wall)
	}
	sub, comp := qp.Stats()
	if sub != 1 || comp != 1 {
		t.Errorf("stats %d/%d", sub, comp)
	}
}

func TestQueueDepthBackpressure(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e12, 0)
	qp := NewQueuePair(s, link, 2, echoHandler(1e-3, s))
	completed := 0
	for i := 0; i < 5; i++ {
		qp.Submit(Command{Opcode: OpCall}, func(Completion) { completed++ })
	}
	if qp.InFlight() != 2 || qp.SoftQueued() != 3 {
		t.Fatalf("inflight=%d soft=%d, want 2/3", qp.InFlight(), qp.SoftQueued())
	}
	s.Run()
	if completed != 5 {
		t.Errorf("completed %d, want 5", completed)
	}
	if qp.InFlight() != 0 || qp.SoftQueued() != 0 {
		t.Errorf("queues not drained: %d/%d", qp.InFlight(), qp.SoftQueued())
	}
}

func TestCompletionOrderFIFOForEqualService(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e9, 0)
	qp := NewQueuePair(s, link, 8, echoHandler(1e-4, s))
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		qp.Submit(Command{}, func(Completion) { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v", order)
		}
	}
}

func TestOpcodeStrings(t *testing.T) {
	names := map[Opcode]string{
		OpRead: "read", OpWrite: "write", OpCall: "call", OpPreempt: "preempt",
	}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%d: %q", op, op.String())
		}
	}
}

// A dropped completion must be recovered by the completion timer: the
// command is re-issued and the submitter sees exactly one completion.
func TestDroppedCompletionRecoveredByRetry(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e9, 1e-6)
	qp := NewQueuePair(s, link, 4, echoHandler(1e-4, s))
	qp.SetRetryPolicy(RetryPolicy{Timeout: 1e-3, MaxAttempts: 3, Backoff: 1e-4})
	qp.SetFaults(fault.NewPlan(1, fault.Rule{Point: fault.NVMeCompletionDrop, Rate: 1, MaxCount: 1}))
	completions := 0
	var last Completion
	qp.Submit(Command{Opcode: OpRead}, func(c Completion) { completions++; last = c })
	s.Run()
	if completions != 1 {
		t.Fatalf("submitter saw %d completions, want exactly 1", completions)
	}
	if last.Status != StatusOK {
		t.Errorf("recovered command completed with status %#x", last.Status)
	}
	timeouts, retries, dropped, _, _ := qp.FaultStats()
	if timeouts != 1 || retries != 1 || dropped != 1 {
		t.Errorf("timeouts=%d retries=%d dropped=%d, want 1/1/1", timeouts, retries, dropped)
	}
	if qp.InFlight() != 0 || qp.SoftQueued() != 0 {
		t.Errorf("queues not drained: %d/%d", qp.InFlight(), qp.SoftQueued())
	}
}

// With every attempt's command lost, bounded attempts must end in a
// synthesized StatusTimeout completion, not an infinite retry loop.
func TestBoundedAttemptsSurfaceTimeout(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e9, 1e-6)
	qp := NewQueuePair(s, link, 4, echoHandler(1e-4, s))
	qp.SetRetryPolicy(RetryPolicy{Timeout: 1e-3, MaxAttempts: 3, Backoff: 1e-4})
	qp.SetFaults(fault.NewPlan(1, fault.Rule{Point: fault.NVMeCommandLoss, Rate: 1}))
	completions := 0
	var last Completion
	qp.Submit(Command{Opcode: OpCall}, func(c Completion) { completions++; last = c })
	s.Run()
	if completions != 1 {
		t.Fatalf("submitter saw %d completions, want exactly 1", completions)
	}
	if last.Status != StatusTimeout {
		t.Errorf("final status %#x, want StatusTimeout", last.Status)
	}
	timeouts, retries, _, lost, _ := qp.FaultStats()
	if timeouts != 3 || retries != 2 || lost != 3 {
		t.Errorf("timeouts=%d retries=%d lost=%d, want 3/2/3", timeouts, retries, lost)
	}
}

// TestCompletionCountsReissues pins a completion's own counts: how many
// times the queue pair re-issued the command (Reissues), how many of its
// completion timers fired (Timeouts) and the queue entries it put on the
// link (EntryBytes), whether the CQE landed or the host synthesized a
// failure. The queue pair has one slot, and the device completes a
// command delay seconds after its SQE lands.
func TestCompletionCountsReissues(t *testing.T) {
	retry := RetryPolicy{Timeout: 1e-3, MaxAttempts: 3, Backoff: 1e-4}
	for _, tc := range []struct {
		name       string
		delay      float64
		run        func(s *sim.Sim, qp *QueuePair, done func(Completion))
		status     uint16
		reissues   int
		timeouts   int // completion timers that fired
		deadlined  uint64
		entryBytes int
	}{
		{"clean", 1e-4, func(s *sim.Sim, qp *QueuePair, done func(Completion)) {
			qp.Submit(Command{Opcode: OpCall}, done)
		}, StatusOK, 0, 0, 0, SQESize + CQESize},
		{"dropped, then re-issued", 1e-4, func(s *sim.Sim, qp *QueuePair, done func(Completion)) {
			qp.SetRetryPolicy(retry)
			qp.SetFaults(fault.NewPlan(1, fault.Rule{Point: fault.NVMeCompletionDrop, Rate: 1, MaxCount: 1}))
			qp.Submit(Command{Opcode: OpCall}, done)
		}, StatusOK, 1, 1, 0, 2*SQESize + CQESize},
		{"lost, then re-issued", 1e-4, func(s *sim.Sim, qp *QueuePair, done func(Completion)) {
			qp.SetRetryPolicy(retry)
			qp.SetFaults(fault.NewPlan(1, fault.Rule{Point: fault.NVMeCommandLoss, Rate: 1, MaxCount: 1}))
			qp.Submit(Command{Opcode: OpCall}, done)
		}, StatusOK, 1, 1, 0, 2*SQESize + CQESize},
		{"timeout", 1e-4, func(s *sim.Sim, qp *QueuePair, done func(Completion)) {
			qp.SetRetryPolicy(retry)
			qp.SetFaults(fault.NewPlan(1, fault.Rule{Point: fault.NVMeCommandLoss, Rate: 1}))
			qp.Submit(Command{Opcode: OpCall}, done)
		}, StatusTimeout, retry.MaxAttempts - 1, retry.MaxAttempts, 0, retry.MaxAttempts * SQESize},
		// A 2 ms transfer takes the link just before the device completes,
		// so the CQE is still queued on the wire when the 1 ms timer
		// fires: the command settles with its CQE counted.
		{"timeout with the CQE on the wire", 1e-4, func(s *sim.Sim, qp *QueuePair, done func(Completion)) {
			qp.SetRetryPolicy(RetryPolicy{Timeout: 1e-3, MaxAttempts: 1})
			qp.Submit(Command{Opcode: OpCall}, done)
			s.At(5e-5, func() { qp.link.Transfer(2e9, nil) })
		}, StatusTimeout, 0, 1, 0, SQESize + CQESize},
		// Queued behind a 1 ms command with 0.5 ms to live: declined
		// before its first issue.
		{"deadline in the software queue", 1e-3, func(s *sim.Sim, qp *QueuePair, done func(Completion)) {
			qp.Submit(Command{Opcode: OpCall}, nil)
			qp.SubmitDeadline(Command{Opcode: OpCall}, 5e-4, done)
		}, StatusDeadline, 0, 0, 1, 0},
		// The first issue is lost and its timer fires at 3 ms. The
		// re-issue, due at 4 ms, waits behind a command that holds the
		// slot from 3.5 ms to 6 ms, past the 5 ms deadline, so no second
		// timer is armed.
		{"deadline in the software queue after a re-issue", 2.5e-3, func(s *sim.Sim, qp *QueuePair, done func(Completion)) {
			qp.SetRetryPolicy(RetryPolicy{Timeout: 3e-3, MaxAttempts: 3, Backoff: 1e-3})
			qp.SetFaults(fault.NewPlan(1, fault.Rule{Point: fault.NVMeCommandLoss, Rate: 1, MaxCount: 1}))
			qp.SubmitDeadline(Command{Opcode: OpCall}, 5e-3, done)
			s.At(3.5e-3, func() { qp.Submit(Command{Opcode: OpCall}, nil) })
		}, StatusDeadline, 1, 1, 1, SQESize},
		// A reset at 0.5 ms aborts the 1 ms command mid-service, and the
		// host re-drives it.
		{"AbortAll, then re-driven", 1e-3, func(s *sim.Sim, qp *QueuePair, done func(Completion)) {
			qp.SetRetryPolicy(RetryPolicy{Timeout: 1e-2, MaxAttempts: 2, Backoff: 1e-4})
			qp.Submit(Command{Opcode: OpCall}, done)
			s.At(5e-4, func() { qp.AbortAll(StatusAborted) })
		}, StatusOK, 1, 0, 0, 2*SQESize + CQESize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			qp := NewQueuePair(s, sim.NewLink(s, "l", 1e12, 0), 1, echoHandler(tc.delay, s))
			var got []Completion
			tc.run(s, qp, func(c Completion) { got = append(got, c) })
			s.Run()
			if len(got) != 1 {
				t.Fatalf("submitter saw %d completions, want exactly 1", len(got))
			}
			if c := got[0]; c.Status != tc.status || c.Reissues != tc.reissues || c.Timeouts != tc.timeouts || c.EntryBytes != tc.entryBytes {
				t.Errorf("completion status %#x after %d re-issues, %d timeouts and %d entry bytes, want %#x after %d, %d and %d",
					c.Status, c.Reissues, c.Timeouts, c.EntryBytes, tc.status, tc.reissues, tc.timeouts, tc.entryBytes)
			}
			// The queue pair's own counters agree: this command was the
			// only one re-issued or timed out.
			timeouts, retries, _, _, _ := qp.FaultStats()
			if retries != uint64(tc.reissues) || timeouts != uint64(tc.timeouts) || qp.Deadlined() != tc.deadlined {
				t.Errorf("queue pair counted %d retries, %d timeouts and %d deadline misses, want %d, %d and %d",
					retries, timeouts, qp.Deadlined(), tc.reissues, tc.timeouts, tc.deadlined)
			}
		})
	}
}

// Exponential backoff: the second retry waits twice the first.
func TestRetryBackoffDoubles(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e12, 0)
	qp := NewQueuePair(s, link, 1, echoHandler(1e-5, s))
	qp.SetRetryPolicy(RetryPolicy{Timeout: 1e-3, MaxAttempts: 3, Backoff: 1e-3})
	qp.SetFaults(fault.NewPlan(1, fault.Rule{Point: fault.NVMeCommandLoss, Rate: 1}))
	var end sim.Time
	qp.Submit(Command{}, func(c Completion) { end = c.Completed })
	s.Run()
	// Timeline: timeout at 1ms, backoff 1ms, timeout at 3ms, backoff
	// 2ms, timeout at 6ms -> final completion.
	if end < 5.9e-3 || end > 6.1e-3 {
		t.Errorf("gave up at %v, want ~6ms under doubling backoff", end)
	}
}

// Queue-pair saturation: a burst far beyond QueueDepth must drain FIFO
// through the host-side software queue.
func TestSaturationDrainsFIFOThroughSoftQueue(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e12, 0)
	qp := NewQueuePair(s, link, 2, echoHandler(1e-4, s))
	const burst = 16
	var order []int
	for i := 0; i < burst; i++ {
		i := i
		qp.Submit(Command{Opcode: OpCall}, func(Completion) { order = append(order, i) })
	}
	if qp.InFlight() != 2 || qp.SoftQueued() != burst-2 {
		t.Fatalf("inflight=%d soft=%d, want 2/%d", qp.InFlight(), qp.SoftQueued(), burst-2)
	}
	s.Run()
	if len(order) != burst {
		t.Fatalf("completed %d, want %d", len(order), burst)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v not FIFO", order)
		}
	}
	if qp.InFlight() != 0 || qp.SoftQueued() != 0 {
		t.Errorf("queues not drained: %d/%d", qp.InFlight(), qp.SoftQueued())
	}
}

// The same burst with injected completion drops: every command must still
// complete exactly once and the queues must drain — timed-out commands
// release their hardware slot so the software queue keeps moving.
func TestSaturationDrainsUnderInjectedTimeouts(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e12, 0)
	qp := NewQueuePair(s, link, 2, echoHandler(1e-4, s))
	qp.SetRetryPolicy(RetryPolicy{Timeout: 5e-4, MaxAttempts: 4, Backoff: 1e-4})
	qp.SetFaults(fault.NewPlan(7,
		fault.Rule{Point: fault.NVMeCompletionDrop, Rate: 1, MaxCount: 3},
		fault.Rule{Point: fault.NVMeCommandLoss, Rate: 1, MaxCount: 2},
	))
	const burst = 12
	seen := make([]int, burst)
	ok := 0
	for i := 0; i < burst; i++ {
		i := i
		qp.Submit(Command{Opcode: OpCall}, func(c Completion) {
			seen[i]++
			if c.Status == StatusOK {
				ok++
			}
		})
	}
	s.Run()
	for i, n := range seen {
		if n != 1 {
			t.Errorf("command %d completed %d times, want exactly once", i, n)
		}
	}
	if ok != burst {
		t.Errorf("%d/%d commands recovered to success", ok, burst)
	}
	timeouts, retries, dropped, lost, _ := qp.FaultStats()
	if dropped != 3 || lost != 2 {
		t.Errorf("dropped=%d lost=%d, want 3/2", dropped, lost)
	}
	if timeouts != 5 || retries != 5 {
		t.Errorf("timeouts=%d retries=%d, want 5/5 (every injection recovered on retry)", timeouts, retries)
	}
	if qp.InFlight() != 0 || qp.SoftQueued() != 0 {
		t.Errorf("queues not drained: %d/%d", qp.InFlight(), qp.SoftQueued())
	}
}

// AbortAll (the reset path) fails in-flight commands; with a retry policy
// they are re-driven and complete.
func TestAbortAllRedrivesInFlight(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e9, 1e-6)
	qp := NewQueuePair(s, link, 4, echoHandler(1e-3, s))
	qp.SetRetryPolicy(RetryPolicy{Timeout: 1e-2, MaxAttempts: 2, Backoff: 1e-4})
	var got Completion
	qp.Submit(Command{Opcode: OpCall}, func(c Completion) { got = c })
	// Abort mid-service.
	s.After(5e-4, func() { qp.AbortAll(StatusAborted) })
	s.Run()
	if got.Status != StatusOK {
		t.Errorf("re-driven command finished with status %#x", got.Status)
	}
	_, _, _, _, aborted := qp.FaultStats()
	if aborted != 1 {
		t.Errorf("aborted=%d, want 1", aborted)
	}
}

// Without a retry policy AbortAll must surface the abort status directly.
func TestAbortAllWithoutRetrySurfacesStatus(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e9, 1e-6)
	qp := NewQueuePair(s, link, 4, echoHandler(1e-3, s))
	var got Completion
	qp.Submit(Command{Opcode: OpCall}, func(c Completion) { got = c })
	s.After(5e-4, func() { qp.AbortAll(StatusAborted) })
	s.Run()
	if got.Status != StatusAborted {
		t.Errorf("status %#x, want StatusAborted", got.Status)
	}
}

func TestBadConstruction(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1, 0)
	for _, fn := range []func(){
		func() { NewQueuePair(s, link, 0, echoHandler(0, s)) },
		func() { NewQueuePair(s, link, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// A deadline shorter than the command's service time must abandon it
// with StatusDeadline at exactly the deadline instant — even with no
// RetryPolicy armed, so a deadlined command can never strand the run.
func TestDeadlineAbandonsSlowCommand(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e12, 0)
	qp := NewQueuePair(s, link, 4, echoHandler(10e-3, s))
	var got Completion
	completions := 0
	qp.SubmitDeadline(Command{Opcode: OpCall}, 2e-3, func(c Completion) { completions++; got = c })
	s.Run()
	if completions != 1 {
		t.Fatalf("saw %d completions, want exactly 1", completions)
	}
	if got.Status != StatusDeadline {
		t.Fatalf("status %#x, want StatusDeadline", got.Status)
	}
	if got.Completed != 2e-3 {
		t.Errorf("abandoned at %v, want exactly the 2ms deadline", got.Completed)
	}
	if qp.Deadlined() != 1 {
		t.Errorf("deadlined=%d, want 1", qp.Deadlined())
	}
	if qp.InFlight() != 0 || qp.SoftQueued() != 0 {
		t.Errorf("queues not drained: %d/%d", qp.InFlight(), qp.SoftQueued())
	}
}

// A generous deadline must not perturb a healthy command.
func TestDeadlineGenerousIsInvisible(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e9, 1e-6)
	qp := NewQueuePair(s, link, 4, echoHandler(1e-4, s))
	qp.SetRetryPolicy(RetryPolicy{Timeout: 1e-3, MaxAttempts: 3, Backoff: 1e-4})
	var got Completion
	qp.SubmitDeadline(Command{Opcode: OpRead}, 1.0, func(c Completion) { got = c })
	s.Run()
	if got.Status != StatusOK {
		t.Fatalf("status %#x", got.Status)
	}
	if qp.Deadlined() != 0 {
		t.Errorf("deadlined=%d, want 0", qp.Deadlined())
	}
}

// With command losses, the retry ladder must stop as soon as the next
// attempt would start past the deadline: the submitter hears exactly
// once, with StatusDeadline, no later than the deadline allows.
func TestDeadlineCutsRetryLadder(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e12, 0)
	qp := NewQueuePair(s, link, 4, echoHandler(1e-4, s))
	qp.SetRetryPolicy(RetryPolicy{Timeout: 1e-3, MaxAttempts: 10, Backoff: 1e-3})
	qp.SetFaults(fault.NewPlan(1, fault.Rule{Point: fault.NVMeCommandLoss, Rate: 1}))
	completions := 0
	var got Completion
	// Without the deadline the 10-attempt ladder would run ~tens of ms.
	qp.SubmitDeadline(Command{Opcode: OpCall}, 2.5e-3, func(c Completion) { completions++; got = c })
	s.Run()
	if completions != 1 {
		t.Fatalf("saw %d completions, want exactly 1", completions)
	}
	if got.Status != StatusDeadline {
		t.Fatalf("status %#x, want StatusDeadline", got.Status)
	}
	if got.Completed > 2.5e-3 {
		t.Errorf("gave up at %v, after the deadline", got.Completed)
	}
	if qp.Deadlined() != 1 {
		t.Errorf("deadlined=%d, want 1", qp.Deadlined())
	}
}

// Submit must stay bit-identical to SubmitDeadline with a zero deadline:
// the deadline machinery is strictly opt-in.
func TestZeroDeadlineIsSubmit(t *testing.T) {
	run := func(deadline sim.Time) (sim.Time, uint64) {
		s := sim.New()
		link := sim.NewLink(s, "l", 1e9, 1e-6)
		qp := NewQueuePair(s, link, 2, echoHandler(1e-4, s))
		qp.SetRetryPolicy(RetryPolicy{Timeout: 5e-4, MaxAttempts: 4, Backoff: 1e-4})
		qp.SetFaults(fault.NewPlan(7, fault.Rule{Point: fault.NVMeCompletionDrop, Rate: 1, MaxCount: 2}))
		var last sim.Time
		for i := 0; i < 6; i++ {
			qp.SubmitDeadline(Command{Opcode: OpCall}, deadline, func(c Completion) { last = c.Completed })
		}
		s.Run()
		return last, s.EventsFired()
	}
	endA, firedA := run(0)
	endB, firedB := run(0)
	if endA != endB || firedA != firedB {
		t.Fatalf("zero-deadline runs diverge: %v/%d vs %v/%d", endA, firedA, endB, firedB)
	}
}

// A deadline that passes while the command waits in the software queue
// abandons it on dequeue without consuming a hardware slot, and the
// queue keeps draining.
func TestDeadlineExpiresInSoftQueue(t *testing.T) {
	s := sim.New()
	link := sim.NewLink(s, "l", 1e12, 0)
	qp := NewQueuePair(s, link, 1, echoHandler(1e-3, s))
	var first, starved Completion
	qp.SubmitDeadline(Command{Opcode: OpCall}, 0, func(c Completion) { first = c })
	// Queued behind a 1ms command but allowed only 0.5ms total.
	qp.SubmitDeadline(Command{Opcode: OpCall}, 5e-4, func(c Completion) { starved = c })
	var last Completion
	qp.Submit(Command{Opcode: OpCall}, func(c Completion) { last = c })
	s.Run()
	if first.Status != StatusOK || last.Status != StatusOK {
		t.Fatalf("healthy commands failed: %#x %#x", first.Status, last.Status)
	}
	if starved.Status != StatusDeadline {
		t.Fatalf("starved command status %#x, want StatusDeadline", starved.Status)
	}
	if qp.InFlight() != 0 || qp.SoftQueued() != 0 {
		t.Errorf("queues not drained: %d/%d", qp.InFlight(), qp.SoftQueued())
	}
}

// The reference model: the closure-based queue pair as it stood before
// command records were pooled, kept verbatim apart from the renames. The
// pooled QueuePair must reproduce it completion for completion.

// refQueuePair is one SQ/CQ pair bound to a link and a device handler.
type refQueuePair struct {
	sim     *sim.Sim
	link    *sim.Link
	depth   int
	handler Handler
	faults  *fault.Plan
	retry   RetryPolicy

	inFlight   int
	soft       []refPending // host-side software queue when SQ is full
	live       []*refIssued // device-owned commands, issue order
	cqInFlight int          // completion entries crossing back over the link

	submitted uint64
	completed uint64
	timeouts  uint64
	retries   uint64
	dropped   uint64 // injected completion drops
	lost      uint64 // injected command losses
	aborted   uint64 // commands failed by AbortAll (device reset)
	deadlined uint64 // commands abandoned at their deadline
}

type refPending struct {
	cmd      Command
	when     sim.Time
	deadline sim.Time // absolute give-up instant; 0 = none
	done     func(Completion)
	attempt  int // issue attempts already consumed
}

// refIssued is one command the hardware queue currently owns. settled flips
// exactly once — on normal completion, timer expiry, or abort — and every
// later signal for the command (a late CQE, a stale timer) is discarded
// against it.
type refIssued struct {
	p       refPending
	timer   *sim.Event
	settled bool
}

// newRefQueuePair creates a queue pair of the given depth over link, served
// by handler on the device side.
func newRefQueuePair(s *sim.Sim, link *sim.Link, depth int, handler Handler) *refQueuePair {
	if depth <= 0 {
		panic("nvme: queue depth must be positive")
	}
	if handler == nil {
		panic("nvme: nil handler")
	}
	return &refQueuePair{sim: s, link: link, depth: depth, handler: handler}
}

// Submit posts cmd; done fires on the host side when the completion entry
// has crossed back over the link (or, under a RetryPolicy, when the host
// gives up on the command and synthesizes a failure completion).
func (q *refQueuePair) Submit(cmd Command, done func(Completion)) {
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
func (q *refQueuePair) SubmitDeadline(cmd Command, deadline sim.Time, done func(Completion)) {
	q.submitted++
	q.enqueue(refPending{cmd: cmd, when: q.sim.Now(), deadline: deadline, done: done})
}

func (q *refQueuePair) enqueue(p refPending) {
	if q.inFlight >= q.depth {
		q.soft = append(q.soft, p)
		q.sim.Recorder().Sample(metrics.SeriesNVMeSoftQueue, q.sim.Now(), float64(len(q.soft)))
		return
	}
	q.issue(p)
}

func (q *refQueuePair) issue(p refPending) {
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
	is := &refIssued{p: p}
	q.live = append(q.live, is)
	timeout := q.retry.Timeout
	if p.deadline > 0 {
		if remain := p.deadline - q.sim.Now(); timeout <= 0 || remain < timeout {
			timeout = remain
		}
	}
	if timeout > 0 {
		is.timer = q.sim.After(timeout, func() { q.expire(is) })
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
func (q *refQueuePair) settle(is *refIssued) {
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
func (q *refQueuePair) expire(is *refIssued) {
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
func (q *refQueuePair) fail(is *refIssued, status uint16) {
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
// device returns.
func (q *refQueuePair) AbortAll(status uint16) {
	live := append([]*refIssued(nil), q.live...)
	for _, is := range live {
		if is.settled {
			continue
		}
		q.aborted++
		q.fail(is, status)
	}
}

// qpUnderTest is what the differential test drives on both queue pairs.
type qpUnderTest interface {
	SubmitDeadline(cmd Command, deadline sim.Time, done func(Completion))
	AbortAll(status uint16)
}

// splitmix is the test's seeded draw source.
type splitmix struct{ state uint64 }

func (r *splitmix) uniform() float64 {
	r.state += 0x9E3779B97F4A7C15
	return float64(fault.Mix64(r.state)>>11) / (1 << 53)
}

// between draws uniformly from [lo, hi).
func (r *splitmix) between(lo, hi float64) float64 { return lo + (hi-lo)*r.uniform() }

// runSchedule drives one seeded schedule through a fresh queue pair —
// the pooled one, or the reference — and returns the completion log and
// the final counters. The schedule mixes submissions with and without
// deadlines, command loss and completion drops, retry policies with
// timeouts, resets (AbortAll) at random instants, handlers that complete
// synchronously, after a delay, or with a media error, completion
// callbacks that submit a follow-up command, and one that resets the
// queue pair from inside an abort. For the pooled queue pair, stages
// counts the stage of every live record each AbortAll walked over.
func runSchedule(seed uint64, pooled bool, stages map[stage]int) (log []string, final string) {
	r := &splitmix{state: seed}
	s := sim.New()
	link := sim.NewLink(s, "l", 1e9, 20e-6)
	var retry RetryPolicy
	if r.uniform() < 0.7 {
		retry = RetryPolicy{Timeout: r.between(40e-6, 300e-6), MaxAttempts: 1 + int(4*r.uniform()), Backoff: r.between(5e-6, 50e-6)}
	}
	plan := fault.NewPlan(seed,
		fault.Rule{Point: fault.NVMeCommandLoss, Rate: 0.3 * r.uniform()},
		fault.Rule{Point: fault.NVMeCompletionDrop, Rate: 0.3 * r.uniform()})
	depth := 1 + int(4*r.uniform())

	// The k-th handler call's behaviour is a function of (seed, k), so
	// both queue pairs see the same device as long as they call it in
	// the same order.
	calls := uint64(0)
	handler := func(cmd Command, _ sim.Time, complete func(Completion)) {
		h := &splitmix{state: seed ^ fault.Mix64(calls+1)}
		calls++
		c := Completion{Value: cmd.Offset}
		if h.uniform() < 0.1 {
			c.Status = StatusMediaError
		}
		if h.uniform() < 0.3 {
			complete(c)
			return
		}
		s.After(h.between(1e-6, 250e-6), func() { complete(c) })
	}

	const countersFormat = "faults=%d/%d/%d/%d/%d deadlined=%d stats=%d/%d live=%d/%d cq=%d events=%d now=%v"
	var qp qpUnderTest
	var probe func()           // runs before each reset
	var counters func() string // the queue pair's final counters
	if pooled {
		q := NewQueuePair(s, link, depth, handler)
		q.SetFaults(plan)
		q.SetRetryPolicy(retry)
		qp = q
		probe = func() {
			for _, is := range q.live {
				stages[is.stage]++
			}
		}
		counters = func() string {
			timeouts, retries, dropped, lost, aborted := q.FaultStats()
			sub, comp := q.Stats()
			return fmt.Sprintf(countersFormat, timeouts, retries, dropped, lost, aborted, q.Deadlined(),
				sub, comp, q.InFlight(), q.SoftQueued(), q.cqInFlight, s.EventsFired(), s.Now())
		}
	} else {
		q := newRefQueuePair(s, link, depth, handler)
		q.faults, q.retry = plan, retry
		qp = q
		probe = func() {}
		counters = func() string {
			return fmt.Sprintf(countersFormat, q.timeouts, q.retries, q.dropped, q.lost, q.aborted, q.deadlined,
				q.submitted, q.completed, q.inFlight, len(q.soft), q.cqInFlight, s.EventsFired(), s.Now())
		}
	}

	abort := func() {
		probe()
		qp.AbortAll(StatusAborted)
	}
	var submit func(id int64, deadline sim.Time)
	submit = func(id int64, deadline sim.Time) {
		follow := r.uniform()
		qp.SubmitDeadline(Command{Opcode: OpCall, Offset: id}, deadline, func(c Completion) {
			log = append(log, fmt.Sprintf("%d status=%#x value=%v submitted=%v started=%v completed=%v now=%v",
				id, c.Status, c.Value, c.Submitted, c.Started, c.Completed, s.Now()))
			switch {
			case follow < 0.1:
				submit(id+1000, 0)
			case follow < 0.13 && c.Status == StatusAborted:
				abort()
			}
		})
	}
	n := 10 + int(30*r.uniform())
	for i := 0; i < n; i++ {
		id := int64(i)
		at := r.between(0, 1e-3)
		var deadline sim.Time
		if r.uniform() < 0.3 {
			deadline = at + r.between(50e-6, 500e-6)
		}
		s.At(at, func() { submit(id, deadline) })
	}
	for i, resets := 0, int(4*r.uniform()); i < resets; i++ {
		s.At(r.between(0, 1.2e-3), abort)
	}
	s.Run()
	return log, counters()
}

// TestPooledQueuePairMatchesReference drives the pooled queue pair and
// the closure-based reference through the same seeded schedules: both
// must deliver the same completions in the same order, with the same
// status, Submitted, Started and Completed, and end with the same
// counters. The resets must catch live commands in each device stage.
func TestPooledQueuePairMatchesReference(t *testing.T) {
	stages := map[stage]int{}
	for seed := uint64(1); seed <= 400; seed++ {
		want, wantCounters := runSchedule(seed, false, nil)
		got, gotCounters := runSchedule(seed, true, stages)
		if !slices.Equal(got, want) || gotCounters != wantCounters {
			t.Fatalf("seed %d: pooled queue pair diverged from the reference\ngot  %s\n%s\nwant %s\n%s",
				seed, gotCounters, strings.Join(got, "\n"), wantCounters, strings.Join(want, "\n"))
		}
	}
	for _, st := range []stage{stageSQE, stageDevice, stageCQE} {
		if stages[st] == 0 {
			t.Errorf("no reset caught a live command in stage %d (counts %v)", st, stages)
		}
	}
}

// TestQueuePairSteadyStateAllocFree pins the pooled records: once the
// pool is primed, a command from Submit to its completion allocates
// nothing, whether the handler completes at once or after a delay, with
// or without a completion timer, and when the timer expires and the
// command is re-issued after its backoff (the first issue's completion
// lands late and is discarded). The handler and done are built once, so
// what is measured is the queue pair's own bookkeeping.
func TestQueuePairSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		delayed bool
		retry   RetryPolicy
		timeout bool // every first issue outlives its completion timer
	}{
		{"sync handler", false, RetryPolicy{}, false},
		{"delayed handler", true, RetryPolicy{}, false},
		{"delayed handler with completion timer", true, supervised, false},
		{"timeout, then re-issue", true, supervised, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			var complete, late func(Completion)
			fire := func() { complete(Completion{}) }
			fireLate := func() { late(Completion{}) }
			issues := 0
			qp := NewQueuePair(s, sim.NewLink(s, "l", 1e9, 1e-6), 4, func(_ Command, _ sim.Time, c func(Completion)) {
				if !tc.delayed {
					c(Completion{})
					return
				}
				issues++
				if tc.timeout && issues%2 == 1 {
					late = c
					s.After(2*tc.retry.Timeout, fireLate)
					return
				}
				complete = c
				s.After(1e-5, fire)
			})
			qp.SetRetryPolicy(tc.retry)
			var status uint16
			done := func(c Completion) { status = c.Status }
			op := func() { qp.Submit(Command{Opcode: OpCall}, done); s.Run() }
			op() // prime the pools
			if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
				t.Errorf("steady state allocates %.1f objects/op, want 0", allocs)
			}
			if status != StatusOK {
				t.Errorf("last command completed with status %#x", status)
			}
			sub, _ := qp.Stats()
			if timeouts, retries, _, _, _ := qp.FaultStats(); tc.timeout && (timeouts != sub || retries != sub) {
				t.Errorf("%d timeouts and %d retries over %d commands, want one each per command", timeouts, retries, sub)
			}
		})
	}
}

// BenchmarkQueuePairCall measures one command from Submit to its
// completion through a handler that completes after a delay, with the
// completion timer armed. allocs/op should be zero.
func BenchmarkQueuePairCall(b *testing.B) {
	s := sim.New()
	var complete func(Completion)
	fire := func() { complete(Completion{}) }
	qp := NewQueuePair(s, sim.NewLink(s, "l", 5e9, 1e-6), 64, func(_ Command, _ sim.Time, c func(Completion)) {
		complete = c
		s.After(1e-5, fire)
	})
	qp.SetRetryPolicy(supervised)
	done := func(Completion) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qp.Submit(Command{Opcode: OpCall}, done)
		s.Run()
	}
}
