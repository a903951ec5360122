// Package chaos is the randomized fault-schedule verification harness
// for the resilience layer (DESIGN.md §12). It generates seeded random
// fault schedules across every stochastic injection point the platform
// owns — NVMe command loss and completion drops, transient and
// uncorrectable flash errors, CSE stalls, scheduled controller resets —
// runs a traced program under each schedule with the full degradation
// ladder armed, and checks the terminal-state invariants:
//
//   - every schedule terminates with either a correct, fully-accounted
//     result or a typed clean failure (*resilience.ShedError) — never a
//     strand, a panic, an untyped error, or a silently wrong answer;
//   - after every run the platform is drained: no calendar events, no
//     device-owned or software-queued NVMe commands left behind;
//   - the zero-fault armed schedule reproduces the clean run bit for bit
//     (the fault machinery is free when idle).
//
// Everything is derived from one seed with the fault package's
// hash-per-decision discipline, so a violation's (Seed, Index) pair
// replays the exact schedule that produced it, and a sweep's Report is
// byte-identical at any parallelism.
package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"strings"

	"activego/internal/codegen"
	"activego/internal/exec"
	"activego/internal/fault"
	"activego/internal/lang/interp"
	"activego/internal/nvme"
	"activego/internal/par"
	"activego/internal/platform"
	"activego/internal/resilience"
)

// Outcome classifies one schedule's terminal state.
type Outcome int

// Outcomes.
const (
	// Completed: the run finished and every record is accounted for.
	Completed Outcome = iota
	// CleanFailure: the run ended with a typed *resilience.ShedError —
	// the degradation ladder's explicit last rung.
	CleanFailure
	// Violation: anything else — a panic, a stranded run, an untyped
	// error, lost records, or undrained platform state.
	Violation
)

func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case CleanFailure:
		return "clean-failure"
	case Violation:
		return "violation"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// ScheduleParams bounds the generated schedules.
type ScheduleParams struct {
	// MaxRate caps every stochastic rule's injection rate; zero means 0.5.
	MaxRate float64
	// Horizon scales windows and reset instants — roughly the simulated
	// span faults should land in (a clean run's duration is a good value).
	Horizon float64
}

func (sp ScheduleParams) maxRate() float64 {
	if sp.MaxRate <= 0 || sp.MaxRate > 1 {
		return 0.5
	}
	return sp.MaxRate
}

// Schedule derives the index-th randomized fault schedule of a seeded
// sweep. Pure: the same (seed, index, params) always yields the same
// rules, and every returned schedule passes fault.Validate.
func Schedule(seed uint64, index int, params ScheduleParams) []fault.Rule {
	// One stream per schedule, so schedules never perturb each other
	// and (seed, index) fully determines the rule set.
	s := fault.NewStream(fault.Mix64(seed ^ uint64(index)*0xA24BAED4963EE407))
	var rules []fault.Rule
	points := []fault.Point{
		fault.NVMeCommandLoss, fault.NVMeCompletionDrop,
		fault.FlashTransient, fault.FlashUncorrectable, fault.CSEStall,
	}
	for _, pt := range points {
		if s.Uniform() >= 0.65 {
			continue
		}
		r := fault.Rule{Point: pt, Rate: s.Uniform() * params.maxRate()}
		if pt == fault.CSEStall {
			r.Duration = (0.25 + s.Uniform()) * (params.Horizon / 8)
		}
		if s.Uniform() < 0.5 {
			// Windowed: the fault burst covers part of the horizon.
			start := s.Uniform() * params.Horizon
			r.Start = start
			r.End = start + (0.1+s.Uniform())*params.Horizon
		}
		if s.Uniform() < 0.5 {
			r.MaxCount = 1 + int(s.Uniform()*8)
		}
		rules = append(rules, r)
	}
	// 0-2 scheduled controller resets with positive dark windows.
	resets := int(s.Uniform() * 3)
	for i := 0; i < resets; i++ {
		rules = append(rules, fault.Rule{
			Point:    fault.DeviceReset,
			At:       s.Uniform() * params.Horizon,
			Duration: (0.05 + s.Uniform()) * params.Horizon / 4,
		})
	}
	return rules
}

// Config drives one chaos sweep.
type Config struct {
	Seed      uint64
	Schedules int // number of randomized schedules; zero means 256
	// Trace, Partition, Backend describe the program under test.
	Trace     *interp.Trace
	Partition codegen.Partition
	Backend   codegen.Backend
	// Policy is the resilience ladder armed for every run; its backoff
	// seed is re-derived per schedule.
	Policy resilience.Policy
	// Retry is the NVMe command supervision armed for every run.
	Retry nvme.RetryPolicy
	// OverheadScale is passed through to exec.Options.
	OverheadScale float64
	// Params bounds the generated schedules; a zero Horizon is replaced
	// by twice the measured clean-run duration.
	Params ScheduleParams
	// Pool fans schedules out; nil runs them serially. The report is
	// byte-identical either way.
	Pool *par.Pool
}

func (c Config) schedules() int {
	if c.Schedules <= 0 {
		return 256
	}
	return c.Schedules
}

// ScheduleResult is one schedule's verdict.
type ScheduleResult struct {
	Index   int
	Seed    uint64
	Rules   int
	Outcome Outcome
	Detail  string // violation or shed description; empty when completed
}

// Report aggregates a sweep.
type Report struct {
	Schedules     int
	Completed     int
	CleanFailures int
	// CleanMatch is the zero-fault differential check: an armed plan
	// whose every rate is zero reproduced the clean run bit for bit.
	CleanMatch bool
	// Violations holds every schedule that broke an invariant, in index
	// order. Replay one with its (Seed, Index) through Schedule.
	Violations []ScheduleResult
}

// Ok reports whether the sweep held every invariant.
func (r *Report) Ok() bool { return r.CleanMatch && len(r.Violations) == 0 }

// Summary is a one-line digest for CLIs and logs.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d schedules, %d completed, %d clean failures, %d violations",
		r.Schedules, r.Completed, r.CleanFailures, len(r.Violations))
	if !r.CleanMatch {
		b.WriteString(", zero-fault run DIVERGED from clean run")
	}
	for i, v := range r.Violations {
		if i == 3 {
			fmt.Fprintf(&b, "; +%d more", len(r.Violations)-3)
			break
		}
		fmt.Fprintf(&b, "; #%d(seed %#x): %s", v.Index, v.Seed, v.Detail)
	}
	return b.String()
}

// Run executes the sweep: a clean reference run, the zero-fault
// differential check, then cfg.Schedules randomized schedules fanned out
// over the pool. Only configuration errors surface as error — schedule
// misbehavior is data, reported per schedule.
func Run(cfg Config) (*Report, error) {
	if cfg.Trace == nil || len(cfg.Trace.Records) == 0 {
		return nil, fmt.Errorf("chaos: no trace to run")
	}
	if cfg.Backend.Name == "" {
		cfg.Backend = codegen.Native
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}

	clean, err := runOnce(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("chaos: clean reference run failed: %w", err)
	}
	if cfg.Params.Horizon <= 0 {
		cfg.Params.Horizon = 2 * clean.Duration
	}

	rep := &Report{Schedules: cfg.schedules()}

	// Differential check: armed-but-idle must be invisible.
	zero := []fault.Rule{
		{Point: fault.NVMeCommandLoss, Rate: 0},
		{Point: fault.NVMeCompletionDrop, Rate: 0},
		{Point: fault.FlashTransient, Rate: 0},
		{Point: fault.FlashUncorrectable, Rate: 0},
		{Point: fault.CSEStall, Rate: 0, Duration: 1e-3},
	}
	zeroRes, err := runOnce(cfg, zero)
	rep.CleanMatch = err == nil && reflect.DeepEqual(clean, zeroRes)

	results, _ := par.Map(cfg.Pool, rep.Schedules, func(i int) (ScheduleResult, error) {
		return runSchedule(cfg, i), nil
	})
	for _, r := range results {
		switch r.Outcome {
		case Completed:
			rep.Completed++
		case CleanFailure:
			rep.CleanFailures++
		default:
			rep.Violations = append(rep.Violations, r)
		}
	}
	return rep, nil
}

// runOnce replays the trace on a fresh platform with the ladder armed
// and rules (nil = no injections) installed.
func runOnce(cfg Config, rules []fault.Rule) (*exec.Result, error) {
	p := platform.Default()
	pol := cfg.Policy
	if len(rules) > 0 {
		plan, err := fault.NewPlanChecked(cfg.Seed, rules...)
		if err != nil {
			return nil, err
		}
		p.InstallFaults(plan, cfg.Retry)
	} else {
		p.InstallFaults(nil, cfg.Retry)
	}
	return exec.Run(p, cfg.Trace, cfg.options(&pol))
}

// options are the executor options of every run of the sweep: the
// program under test through the NVMe call queue with pol's ladder
// armed.
func (c Config) options(pol *resilience.Policy) exec.Options {
	return exec.Options{
		Backend:       c.Backend,
		Partition:     c.Partition,
		OverheadScale: c.OverheadScale,
		Resilience:    pol,
	}
}

// runSchedule generates and executes schedule i, classifying its
// terminal state. Panics are captured as violations, never propagated —
// a chaos sweep must survive its own findings.
func runSchedule(cfg Config, i int) (sr ScheduleResult) {
	seed := fault.Mix64(cfg.Seed ^ uint64(i)*0xD1342543DE82EF95)
	rules := Schedule(seed, i, cfg.Params)
	sr = ScheduleResult{Index: i, Seed: seed, Rules: len(rules)}

	p := platform.Default()
	defer func() {
		if rec := recover(); rec != nil {
			sr.Outcome = Violation
			sr.Detail = fmt.Sprintf("panic: %v", rec)
		}
	}()

	plan, err := fault.NewPlanChecked(seed, rules...)
	if err != nil {
		// The generator's contract is to emit valid schedules.
		sr.Outcome = Violation
		sr.Detail = fmt.Sprintf("generated invalid schedule: %v", err)
		return sr
	}
	pol := cfg.Policy
	pol.Backoff.Seed = seed
	p.InstallFaults(plan, cfg.Retry)
	res, err := exec.Run(p, cfg.Trace, cfg.options(&pol))
	if err != nil {
		var shed *resilience.ShedError
		if errors.As(err, &shed) {
			sr.Outcome = CleanFailure
			sr.Detail = shed.Error()
			return sr
		}
		sr.Outcome = Violation
		sr.Detail = fmt.Sprintf("untyped failure: %v", err)
		return sr
	}
	if got, want := res.RecordsOnCSD+res.RecordsOnHost, len(cfg.Trace.Records); got != want {
		sr.Outcome = Violation
		sr.Detail = fmt.Sprintf("lost records: %d of %d accounted for", got, want)
		return sr
	}
	if err := p.Drained(); err != nil {
		sr.Outcome = Violation
		sr.Detail = err.Error()
		return sr
	}
	sr.Outcome = Completed
	return sr
}
