// Package resilience provides the failure-handling policies the executor
// arms on the CSD offload path: deterministic retry budgets with seeded
// exponential backoff and jitter, per-call deadlines, and a circuit
// breaker that makes degradation bidirectional — offload is suspended
// after consecutive faults and re-admitted by a half-open probe once the
// device recovers. The presets PerLine and OneShot are two of the three
// postures the studies arm; the third, the full ladder, is sized from
// each run's plan by its caller.
//
// Everything here is policy and bookkeeping: the types never schedule
// simulation events or consult a clock of their own. The executor feeds
// the breaker the simulated time of each success/failure and asks the
// backoff for delays, so a run under a fixed policy seed is
// bit-reproducible regardless of how the event calendar interleaves
// (the same hash-per-decision discipline as internal/fault — no shared
// RNG stream).
package resilience

import (
	"fmt"
	"math"

	"activego/internal/fault"
	"activego/internal/sim"
)

// Backoff is a deterministic exponential-backoff schedule with seeded
// jitter. Delay derives every value by hashing (Seed, key, attempt), so
// the same seed yields a bit-identical schedule and two callers with
// different keys never correlate.
type Backoff struct {
	// Base is the delay before the first re-post, in seconds.
	Base float64
	// Factor is the per-attempt growth; values <= 0 mean 2 (doubling).
	Factor float64
	// Cap bounds the un-jittered delay; 0 means uncapped.
	Cap float64
	// Jitter is the fraction of the delay randomized symmetrically
	// around it, in [0,1]: the returned delay is uniform in
	// [d*(1-Jitter), d*(1+Jitter)). 0 disables jitter.
	Jitter float64
	// Seed keys the jitter hash.
	Seed uint64
}

// Delay returns the wait before re-post number attempt (1-based) of the
// work item identified by key. Deterministic: same (Seed, key, attempt),
// same delay, bit for bit.
func (b Backoff) Delay(key uint64, attempt int) float64 {
	if attempt < 1 {
		attempt = 1
	}
	d := b.Base
	f := b.Factor
	if f <= 0 {
		f = 2
	}
	for i := 1; i < attempt; i++ {
		d *= f
		if b.Cap > 0 && d >= b.Cap {
			break
		}
	}
	if b.Cap > 0 && d > b.Cap {
		d = b.Cap
	}
	if b.Jitter > 0 && d > 0 {
		h := fault.Mix64(fault.Mix64(b.Seed^key) ^ uint64(attempt))
		u := float64(h>>11) / (1 << 53) // uniform [0,1)
		d *= 1 + b.Jitter*(2*u-1)
	}
	return d
}

// BreakerState is the circuit breaker's position.
type BreakerState uint8

// Breaker states. Closed admits offload; Open redirects everything to
// the host; HalfOpen has admitted a single probe line whose outcome
// decides between Closed and Open.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// BreakerPolicy configures the circuit breaker on the offload path.
type BreakerPolicy struct {
	// Threshold is the number of consecutive CSD/NVMe faults that opens
	// the breaker; values < 1 mean 1.
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe, in simulated seconds. 0 probes at the next
	// opportunity.
	Cooldown float64
}

func (bp BreakerPolicy) threshold() int {
	if bp.Threshold < 1 {
		return 1
	}
	return bp.Threshold
}

// Breaker is the circuit-breaker state machine:
//
//	closed --Threshold consecutive failures--> open
//	open   --Cooldown elapsed--> half-open (one probe admitted)
//	half-open --probe succeeds--> closed
//	half-open --probe fails--> open (cooldown restarts)
//
// The machine is driven entirely by its caller: Allow gates each offload
// opportunity, OnSuccess/OnFailure report outcomes. It never schedules
// anything, so it adds no events to a simulation and costs nothing when
// no faults occur. It is a 32-byte value that its owner keeps in place,
// so arming one allocates nothing.
type Breaker struct {
	pol      BreakerPolicy
	openedAt sim.Time
	// failures counts consecutive failures while closed. A Threshold
	// above math.MaxInt32 is never reached.
	failures int32
	state    BreakerState
}

// NewBreaker returns a closed breaker under pol.
func NewBreaker(pol BreakerPolicy) Breaker {
	return Breaker{pol: pol}
}

// State returns the current state.
func (b *Breaker) State() BreakerState { return b.state }

// Allow reports whether an offload attempt may proceed at simulated time
// now. While open it denies until Cooldown has elapsed, then admits a
// single probe (probe true) and moves to half-open; while half-open with
// the probe outstanding it denies further attempts.
func (b *Breaker) Allow(now sim.Time) (admit, probe bool) {
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if now-b.openedAt < b.pol.Cooldown {
			return false, false
		}
		b.state = BreakerHalfOpen
		return true, true
	default: // half-open: the probe's outcome decides, nothing else runs
		return false, false
	}
}

// OnSuccess records a successful offloaded line. It returns true on the
// half-open -> closed transition (the probe succeeded and offload is
// re-admitted).
func (b *Breaker) OnSuccess(now sim.Time) (closed bool) {
	_ = now
	b.failures = 0
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		return true
	}
	return false
}

// OnFailure records a failed offload attempt at simulated time now. It
// returns true on a transition to open: the consecutive-failure
// threshold was reached while closed, or the half-open probe failed.
func (b *Breaker) OnFailure(now sim.Time) (opened bool) {
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = now
		b.failures = 0
		return true
	case BreakerClosed:
		b.failures++
		if int(b.failures) >= b.pol.threshold() {
			b.state = BreakerOpen
			b.openedAt = now
			b.failures = 0
			return true
		}
	}
	return false
}

// Policy is the degradation ladder the executor arms: offload with
// deadline-bounded calls and budgeted backoff re-posts, per-line host
// fallback, breaker-gated host-only cooldowns, and finally a typed shed
// error.
type Policy struct {
	// LineDeadline bounds each offloaded call in simulated seconds,
	// enforced by the NVMe queue pair's completion timers (the call is
	// abandoned — and no retry scheduled — once the deadline passes). 0
	// disables deadlines.
	LineDeadline float64
	// LineRetries is how many times a failed line is re-posted on its
	// current unit (after Backoff delays) before falling down the
	// ladder. The budget applies per rung: a line gets LineRetries
	// re-posts on the CSD and, if it falls back, LineRetries more on
	// the host before shedding.
	LineRetries int
	// Backoff schedules the delay before each line re-post.
	Backoff Backoff
	// Breaker gates the offload path.
	Breaker BreakerPolicy
}

// PerLine returns the static per-line posture: one immediate re-post per
// rung, then the failed line alone falls back to the host. The breaker
// never opens, so the next line goes back to the device however sick it
// is.
func PerLine() Policy {
	return Policy{LineRetries: 1, Breaker: BreakerPolicy{Threshold: math.MaxInt}}
}

// OneShot returns the one-shot failover posture: one immediate re-post,
// and a line whose re-post fails on the CSD too opens a breaker that
// never probes, so the rest of the partition runs on the host for good.
func OneShot() Policy {
	return Policy{LineRetries: 1, Breaker: BreakerPolicy{Threshold: 2, Cooldown: math.MaxFloat64}}
}

// Validate rejects unusable policies: negative budgets or non-finite
// values would strand the executor's retry ladder.
func (p Policy) Validate() error {
	bad := func(f string, v float64) error {
		return fmt.Errorf("resilience: %s %v out of range", f, v)
	}
	if p.LineDeadline < 0 || math.IsNaN(p.LineDeadline) || math.IsInf(p.LineDeadline, 0) {
		return bad("LineDeadline", p.LineDeadline)
	}
	if p.LineRetries < 0 {
		return fmt.Errorf("resilience: LineRetries %d negative", p.LineRetries)
	}
	if p.Backoff.Base < 0 || math.IsNaN(p.Backoff.Base) || math.IsInf(p.Backoff.Base, 0) {
		return bad("Backoff.Base", p.Backoff.Base)
	}
	if p.Backoff.Cap < 0 || math.IsNaN(p.Backoff.Cap) {
		return bad("Backoff.Cap", p.Backoff.Cap)
	}
	if p.Backoff.Jitter < 0 || p.Backoff.Jitter > 1 || math.IsNaN(p.Backoff.Jitter) {
		return bad("Backoff.Jitter", p.Backoff.Jitter)
	}
	if p.Breaker.Cooldown < 0 || math.IsNaN(p.Breaker.Cooldown) || math.IsInf(p.Breaker.Cooldown, 0) {
		return bad("Breaker.Cooldown", p.Breaker.Cooldown)
	}
	return nil
}

// ShedError is the ladder's final rung: the line failed on the CSD,
// failed again on the host, and its retry budgets are exhausted. The run
// ends with this typed error — never a silent wrong answer and never a
// hang — so callers can distinguish a clean shed from a harness bug.
type ShedError struct {
	Record   int // trace record index
	Line     int // source line
	Attempts int // attempts consumed on the final (host) rung
	Cause    error
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("resilience: shed record %d (line %d) after %d host attempts: %v",
		e.Record, e.Line, e.Attempts, e.Cause)
}

// Unwrap exposes the final attempt's failure.
func (e *ShedError) Unwrap() error { return e.Cause }

// AdmitError is the admission-control analogue of ShedError: a request
// the serving driver refused at the front door because both the
// in-flight budget and the wait queue were full. Load shedding is a
// policy outcome, not a failure of the machinery — the driver accounts
// the shed per tenant and keeps serving — but it travels typed so
// harnesses can tell a deliberate shed from a bug, exactly as the
// ladder's ShedError does for exhausted retries.
type AdmitError struct {
	Tenant   string // shedding tenant's name
	Request  int    // tenant-local request sequence number
	InFlight int    // requests in service when the arrival was refused
	Queued   int    // requests waiting when the arrival was refused
}

func (e *AdmitError) Error() string {
	return fmt.Sprintf("resilience: admission shed %s request %d: %d in flight, %d queued",
		e.Tenant, e.Request, e.InFlight, e.Queued)
}
