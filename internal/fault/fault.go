// Package fault is the deterministic fault-injection subsystem for the
// simulated NVMe/CSD/exec stack.
//
// A Plan is built once per run from a seed plus declarative Rules and is
// then consulted at fixed injection points spread through the hardware
// models: the NVMe queue pair asks it whether to lose a command or drop a
// completion, the flash array whether a read suffers an ECC-correctable
// flip or an uncorrectable (UECC) error, the CSD whether a function call
// stalls, and the device schedules full controller resets from it. Every
// decision is derived by hashing (seed, injection point, per-point
// sequence number, current simulated time) — no shared RNG stream, no
// wall clock — so a run with the same seed and rules reproduces the same
// injections bit-for-bit regardless of how the event calendar interleaves
// unrelated components.
//
// A nil *Plan is valid everywhere and injects nothing at zero cost; a
// Plan whose rules all have Rate 0 likewise never perturbs a run. That
// property is what lets the fault machinery live permanently inside the
// hot hardware models without taxing fault-free experiments.
package fault

import (
	"fmt"
	"math"

	"activego/internal/sim"
	"activego/internal/trace"
)

// Point identifies one injection point in the stack.
type Point int

// Injection points.
const (
	// NVMeCommandLoss drops a submission after the SQE crosses the link:
	// the device never sees the command and only a host-side completion
	// timer can recover it.
	NVMeCommandLoss Point = iota
	// NVMeCompletionDrop loses the completion entry of a command the
	// device fully executed: the work was done (and billed) but the host
	// never hears about it.
	NVMeCompletionDrop
	// FlashTransient is an ECC-correctable read error: the controller
	// re-senses the page with tuned thresholds, costing one extra read
	// latency; the caller still gets good data.
	FlashTransient
	// FlashUncorrectable is a UECC read error: the array read completes
	// (channel time is consumed) but the data is garbage and the read
	// fails.
	FlashUncorrectable
	// CSEStall delays a CSD function call before it starts executing,
	// modeling firmware hogging the engine (Rule.Duration sets the stall).
	CSEStall
	// DeviceReset is a full controller reset at a scheduled instant
	// (Rule.At): in-flight commands are aborted and the device goes dark
	// for Rule.Duration.
	DeviceReset

	numPoints
)

func (p Point) String() string {
	switch p {
	case NVMeCommandLoss:
		return "nvme-command-loss"
	case NVMeCompletionDrop:
		return "nvme-completion-drop"
	case FlashTransient:
		return "flash-transient"
	case FlashUncorrectable:
		return "flash-uecc"
	case CSEStall:
		return "cse-stall"
	case DeviceReset:
		return "device-reset"
	}
	return fmt.Sprintf("point(%d)", int(p))
}

// Rule declares one class of injected faults.
type Rule struct {
	Point Point
	// Rate is the probability in [0,1] of injecting at each opportunity
	// (each command, each read, each call). Ignored for DeviceReset,
	// which is scheduled, not rolled.
	Rate float64
	// Start and End bound the active window in simulated time; End == 0
	// means no upper bound.
	Start, End sim.Time
	// MaxCount caps total injections from this rule; 0 means unlimited.
	MaxCount int
	// Duration is the stall length for CSEStall and the dark time for
	// DeviceReset, in seconds.
	Duration float64
	// At is the scheduled instant of a DeviceReset.
	At sim.Time
}

// Plan is one run's armed fault set. Plans are stateful (sequence numbers
// and injection counts advance as the run consults them); build a fresh
// Plan per run. All methods are nil-receiver safe.
type Plan struct {
	seed  uint64
	rules []Rule
	fired []int // per-rule injection count

	seq [numPoints]uint64

	rec *trace.Recorder // optional: receives one instant per injection
}

// RuleError reports one invalid rule in a plan under construction. Fault
// plans are experiment configuration; a typo'd rate must surface as a
// typed error (or a panic, via NewPlan), never be silently clamped or
// composed into a different experiment.
type RuleError struct {
	Index  int   // position of the offending rule in the argument list
	Point  Point // the rule's injection point
	Reason string
}

func (e *RuleError) Error() string {
	return fmt.Sprintf("fault: rule %d (%v): %s", e.Index, e.Point, e.Reason)
}

// Validate checks a rule set without building a plan. It rejects, with a
// typed *RuleError: unknown points, rates outside [0,1] (including NaN),
// negative or NaN counts/durations/instants, inverted windows,
// zero-duration DeviceReset rules (a reset that goes dark for no time is
// a configuration typo, not a fault), and two rules for the same rolled
// point whose active windows overlap — overlapping rules silently
// compose into a combined rate, which is never what the experiment
// meant. DeviceReset rules are scheduled rather than rolled, so several
// of them may coexist; disjoint-windowed rules for one point (e.g. one
// rule per fault burst) are also legal.
func Validate(rules ...Rule) error {
	for i, r := range rules {
		if r.Point < 0 || r.Point >= numPoints {
			return &RuleError{Index: i, Point: r.Point, Reason: fmt.Sprintf("unknown point %d", int(r.Point))}
		}
		if r.Rate < 0 || r.Rate > 1 || math.IsNaN(r.Rate) {
			return &RuleError{Index: i, Point: r.Point, Reason: fmt.Sprintf("rate %v out of [0,1]", r.Rate)}
		}
		if r.MaxCount < 0 || r.Duration < 0 || math.IsNaN(r.Duration) {
			return &RuleError{Index: i, Point: r.Point, Reason: "negative MaxCount/Duration"}
		}
		if math.IsNaN(r.Start) || math.IsNaN(r.End) || math.IsNaN(r.At) {
			return &RuleError{Index: i, Point: r.Point, Reason: "NaN window/instant"}
		}
		if r.End != 0 && r.End < r.Start {
			return &RuleError{Index: i, Point: r.Point, Reason: fmt.Sprintf("window [%v,%v) inverted", r.Start, r.End)}
		}
		if r.Point == DeviceReset && r.Duration == 0 {
			return &RuleError{Index: i, Point: r.Point, Reason: "zero-duration reset (a reset must go dark for a positive Duration)"}
		}
		if r.Point == DeviceReset {
			continue
		}
		for j := 0; j < i; j++ {
			o := rules[j]
			if o.Point != r.Point {
				continue
			}
			if windowsOverlap(o, r) {
				return &RuleError{Index: i, Point: r.Point,
					Reason: fmt.Sprintf("duplicate rule for the same point (rule %d is active over an overlapping window); overlapping rules silently compose", j)}
			}
		}
	}
	return nil
}

// windowsOverlap reports whether two rules' active windows intersect.
// End == 0 means unbounded above.
func windowsOverlap(a, b Rule) bool {
	aEnd, bEnd := a.End, b.End
	if aEnd == 0 {
		aEnd = math.Inf(1)
	}
	if bEnd == 0 {
		bEnd = math.Inf(1)
	}
	return a.Start < bEnd && b.Start < aEnd
}

// NewPlan builds a plan from a seed and rules. Invalid rules panic with
// the corresponding *RuleError's message; use NewPlanChecked where the
// rules come from untrusted or generated input.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	p, err := NewPlanChecked(seed, rules...)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// NewPlanChecked builds a plan from a seed and rules, returning a typed
// *RuleError instead of panicking when a rule is invalid.
func NewPlanChecked(seed uint64, rules ...Rule) (*Plan, error) {
	if err := Validate(rules...); err != nil {
		return nil, err
	}
	return &Plan{seed: seed, rules: append([]Rule(nil), rules...), fired: make([]int, len(rules))}, nil
}

// SetRecorder attaches a trace recorder; every injected fault is then
// recorded as an instant event on the "fault" lane, named after its
// injection point. Recording never affects decisions — the hash stream is
// consumed identically with or without a recorder.
func (p *Plan) SetRecorder(r *trace.Recorder) {
	if p == nil {
		return
	}
	p.rec = r
}

// Mix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-mixed 64-bit hash. Each injection decision hashes its inputs
// independently, so decisions never share stream state. It is exported
// because the resilience backoff jitter and the chaos schedule generator
// reuse the same hash-per-decision discipline (same seed, bit-identical
// schedule, no hidden stream coupling between components).
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Stream is a splitmix64 sequence owned by one consumer — a chaos
// schedule, a serving tenant — so no two consumers share generator
// state and a stream's seed alone fixes its draws.
type Stream struct{ state uint64 }

// NewStream starts a stream at seed.
func NewStream(seed uint64) *Stream { return &Stream{state: seed} }

// Uniform returns the stream's next draw in [0,1).
func (s *Stream) Uniform() float64 {
	s.state += 0x9E3779B97F4A7C15
	return float64(Mix64(s.state)>>11) / (1 << 53)
}

// roll consumes one opportunity at pt and returns a uniform in [0,1)
// derived from the seed, the point, the point's sequence number, and the
// current simulated time.
func (p *Plan) roll(pt Point, now sim.Time) float64 {
	s := p.seq[pt]
	p.seq[pt]++
	h := Mix64(p.seed ^ uint64(pt)<<56)
	h = Mix64(h ^ s)
	h = Mix64(h ^ math.Float64bits(now))
	return float64(h>>11) / (1 << 53)
}

// decide consumes one opportunity and returns the first matching active
// rule, if any rolled an injection.
func (p *Plan) decide(pt Point, now sim.Time) (Rule, bool) {
	if p == nil || len(p.rules) == 0 {
		return Rule{}, false
	}
	u := p.roll(pt, now)
	for i, r := range p.rules {
		if r.Point != pt || r.Point == DeviceReset {
			continue
		}
		if now < r.Start || (r.End != 0 && now >= r.End) {
			continue
		}
		if r.MaxCount > 0 && p.fired[i] >= r.MaxCount {
			continue
		}
		if u >= r.Rate {
			continue
		}
		p.fired[i]++
		p.rec.Instant("fault", "fault", pt.String(), now)
		return r, true
	}
	return Rule{}, false
}

// Decide reports whether to inject a fault at pt for the opportunity at
// simulated time now. Each call consumes one per-point sequence number.
func (p *Plan) Decide(pt Point, now sim.Time) bool {
	_, ok := p.decide(pt, now)
	return ok
}

// DecideDuration is Decide for points whose faults carry a duration
// (CSEStall); it returns the matched rule's Duration.
func (p *Plan) DecideDuration(pt Point, now sim.Time) (float64, bool) {
	r, ok := p.decide(pt, now)
	return r.Duration, ok
}

// Resets returns the scheduled DeviceReset rules; the device arms one
// reset per rule at Rule.At for Rule.Duration.
func (p *Plan) Resets() []Rule {
	if p == nil {
		return nil
	}
	var out []Rule
	for _, r := range p.rules {
		if r.Point == DeviceReset {
			out = append(out, r)
		}
	}
	return out
}
