package exec

import (
	"reflect"
	"strings"
	"testing"

	"activego/internal/codegen"
	"activego/internal/fault"
	"activego/internal/nvme"
	"activego/internal/platform"
	"activego/internal/resilience"
	"activego/internal/trace"
)

// ladderPolicy is the full ladder at fixed test constants: one
// backoff'd re-post per rung, a breaker that opens after three
// consecutive faults and probes after 100 ms, and no line deadline.
func ladderPolicy(seed uint64) resilience.Policy {
	return resilience.Policy{
		LineRetries: 1,
		Backoff:     resilience.Backoff{Base: 1e-3, Factor: 2, Cap: 50e-3, Jitter: 0.25, Seed: seed},
		Breaker:     resilience.BreakerPolicy{Threshold: 3, Cooldown: 100e-3},
	}
}

// postures are the three resilience.Policy values the runtime and its
// studies arm: the full ladder (named Default; its deadline generous
// enough that timers arm and cancel but never fire on a healthy line),
// and the static per-line and one-shot failover presets.
func postures() []struct {
	name string
	pol  resilience.Policy
} {
	ladder := ladderPolicy(7)
	ladder.LineDeadline = 10
	return []struct {
		name string
		pol  resilience.Policy
	}{
		{"Default", ladder},
		{"PerLine", resilience.PerLine()},
		{"OneShot", resilience.OneShot()},
	}
}

// A zero-fault plan with the full supervision stack armed must reproduce
// the bare run bit-for-bit under every posture: timers are created and
// cancelled, rolls never fire, the breaker never moves, and no event's
// timing moves. This is the "fault machinery is free when idle"
// acceptance bar.
func TestZeroFaultPlanReproducesBareRun(t *testing.T) {
	tr := traceFor(t, scanSrc, 1<<16)
	opts := Options{Backend: codegen.Native, Partition: codegen.NewPartition(1, 2, 3)}

	bare, err := Run(platform.Default(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range postures() {
		t.Run(tc.name, func(t *testing.T) {
			p := platform.Default()
			p.InstallFaults(fault.NewPlan(7,
				fault.Rule{Point: fault.NVMeCompletionDrop, Rate: 0},
				fault.Rule{Point: fault.FlashTransient, Rate: 0},
				fault.Rule{Point: fault.CSEStall, Rate: 0, Duration: 1e-3},
			), nvme.RetryPolicy{Timeout: 50e-3, MaxAttempts: 4, Backoff: 1e-3})
			armedOpts := opts
			armedOpts.Resilience = &tc.pol
			armed, err := Run(p, tr, armedOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bare, armed) {
				t.Errorf("armed-but-idle fault stack changed the run:\nbare  %+v\narmed %+v", bare, armed)
			}
		})
	}
}

// Same seed + same rules must yield an identical Result — including the
// retry, timeout, failure and ladder counters — across independent runs,
// under every posture. Completions drop often enough that every posture
// sees failed calls: rung two on the ladder and per-line presets, the
// failover on the one-shot preset.
func TestFaultyRunIsDeterministic(t *testing.T) {
	tr := traceFor(t, scanSrc, 1<<16)
	for _, tc := range postures() {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *Result {
				p := platform.Default()
				p.InstallFaults(fault.NewPlan(42,
					fault.Rule{Point: fault.NVMeCompletionDrop, Rate: 0.8},
					fault.Rule{Point: fault.FlashTransient, Rate: 0.5},
					fault.Rule{Point: fault.CSEStall, Rate: 0.3, Duration: 1e-3},
				), nvme.RetryPolicy{Timeout: 5e-3, MaxAttempts: 2, Backoff: 1e-3})
				pol := tc.pol
				res, err := Run(p, tr, Options{
					Backend: codegen.Native, Partition: codegen.NewPartition(1, 2, 3),
					OverheadScale: 1e-6, Resilience: &pol,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			first := run()
			for i := 0; i < 2; i++ {
				if again := run(); !reflect.DeepEqual(first, again) {
					t.Fatalf("run %d diverged:\nfirst %+v\nagain %+v", i+2, first, again)
				}
			}
			if first.FailedCalls == 0 {
				t.Errorf("no offloaded call failed: the schedule does not exercise the ladder: %+v", first)
			}
			if got := first.RecordsOnCSD + first.RecordsOnHost; got != len(tr.Records) {
				t.Errorf("%d of %d records accounted for", got, len(tr.Records))
			}
			if first.Migrated {
				t.Error("failure-driven degradation must not set Migrated")
			}
		})
	}
}

// An unrecoverable CSD call failure mid-run — every completion dropped
// from a cut-over instant on, exhausting both NVMe command retries and the
// exec-level line retry — must fail the remaining partition over to the
// host under the one-shot preset and still complete the program, with
// every record accounted for.
func TestUnrecoverableCSDFailureFailsOverToHost(t *testing.T) {
	tr := traceFor(t, scanSrc, 1<<16)
	pol := resilience.OneShot()
	opts := Options{
		Backend: codegen.Native, Partition: codegen.NewPartition(1, 2, 3),
		Resilience: &pol, OverheadScale: 1e-6,
	}

	// Clean pass to learn when the first offloaded record completes; the
	// injection window opens right there, so record 0 succeeds on the CSD
	// and record 1 becomes permanently unreachable through the queue.
	clean, err := Run(platform.Default(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.CSDProgress) == 0 {
		t.Fatal("clean run produced no CSD progress")
	}
	cut := clean.CSDProgress[0].Time

	p := platform.Default()
	rec := trace.New()
	p.SetRecorder(rec)
	p.InstallFaults(
		fault.NewPlan(1, fault.Rule{Point: fault.NVMeCompletionDrop, Rate: 1, Start: cut}),
		nvme.RetryPolicy{Timeout: 0.5, MaxAttempts: 2, Backoff: 1e-3},
	)
	res, err := Run(p, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BreakerOpens != 1 || res.BreakerProbes != 0 {
		t.Errorf("breaker opens %d probes %d, want 1/0: one-shot failover never returns",
			res.BreakerOpens, res.BreakerProbes)
	}
	if res.Migrated {
		t.Error("failure-driven failover must not masquerade as a §III-D monitor migration")
	}
	if res.RecordsOnCSD != 1 || res.RecordsOnHost != 2 {
		t.Errorf("records CSD=%d host=%d, want 1/2", res.RecordsOnCSD, res.RecordsOnHost)
	}
	if got := res.RecordsOnCSD + res.RecordsOnHost; got != len(tr.Records) {
		t.Errorf("%d of %d records accounted for", got, len(tr.Records))
	}
	// One CSD line attempted twice, each attempt burning MaxAttempts=2
	// command issues before surfacing a timeout.
	if res.FailedCalls != 2 {
		t.Errorf("FailedCalls %d, want 2", res.FailedCalls)
	}
	if res.Timeouts != 4 {
		t.Errorf("Timeouts %d, want 4", res.Timeouts)
	}
	if res.Retries != 3 { // 2 NVMe re-issues + 1 exec line re-post
		t.Errorf("Retries %d, want 3", res.Retries)
	}
	for _, in := range rec.Instants() {
		if in.Name == "breaker-open" && in.At <= cut {
			t.Errorf("failover at %v, want after the cut-over %v", in.At, cut)
		}
	}
	if res.Duration <= clean.Duration {
		t.Error("failover run cannot be faster than the clean run")
	}
}

// Satellite: with no resilience policy armed, a non-OK call completion
// must become the run's error — never silent success (the status used to
// be ignored).
func TestNonOKStatusWithoutRecoveryFailsRun(t *testing.T) {
	trace := traceFor(t, scanSrc, 1<<16)
	p := platform.Default()
	p.InstallFaults(fault.NewPlan(1, fault.Rule{Point: fault.FlashUncorrectable, Rate: 1}), nvme.RetryPolicy{})
	_, err := Run(p, trace, Options{
		Backend: codegen.Native, Partition: codegen.NewPartition(1, 2, 3),
	})
	if err == nil {
		t.Fatal("uncorrectable flash error surfaced as success")
	}
	if !strings.Contains(err.Error(), "status") {
		t.Errorf("error does not carry the NVMe status: %v", err)
	}
}

// Satellite: a run stranded by a lost command with no completion timer
// must report which record and source line it was stuck on.
func TestDrainedRunNamesStuckRecord(t *testing.T) {
	trace := traceFor(t, scanSrc, 1<<16)
	p := platform.Default()
	// Completions vanish and no retry policy is armed: the run strands.
	p.InstallFaults(fault.NewPlan(1, fault.Rule{Point: fault.NVMeCompletionDrop, Rate: 1}), nvme.RetryPolicy{})
	_, err := Run(p, trace, Options{
		Backend: codegen.Native, Partition: codegen.NewPartition(1, 2, 3),
	})
	if err == nil {
		t.Fatal("stranded run reported success")
	}
	if !strings.Contains(err.Error(), "record 0") || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("drained error does not name the stuck record: %v", err)
	}
	// The hint must name remedies that can un-strand the run: a timer
	// that completes the lost command, or a deadline that abandons it.
	if !strings.Contains(err.Error(), "nvme.RetryPolicy") || !strings.Contains(err.Error(), "resilience.Policy.LineDeadline") {
		t.Errorf("drained error does not name the remedies: %v", err)
	}
}
