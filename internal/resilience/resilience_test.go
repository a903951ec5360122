package resilience

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// Same seed, same key: the backoff schedule must be bit-identical across
// constructions — it is experiment configuration, not randomness.
func TestBackoffDeterministic(t *testing.T) {
	b := Backoff{Base: 1e-3, Factor: 2, Cap: 50e-3, Jitter: 0.5, Seed: 42}
	var first []float64
	for attempt := 1; attempt <= 8; attempt++ {
		first = append(first, b.Delay(7, attempt))
	}
	again := Backoff{Base: 1e-3, Factor: 2, Cap: 50e-3, Jitter: 0.5, Seed: 42}
	for attempt := 1; attempt <= 8; attempt++ {
		if d := again.Delay(7, attempt); d != first[attempt-1] {
			t.Fatalf("attempt %d: %v != %v (schedule not bit-identical)", attempt, d, first[attempt-1])
		}
	}
}

// Different seeds or keys must decorrelate the jitter.
func TestBackoffSeedAndKeyDecorrelate(t *testing.T) {
	a := Backoff{Base: 1e-3, Jitter: 1, Seed: 1}
	b := Backoff{Base: 1e-3, Jitter: 1, Seed: 2}
	sameSeed, sameKey := 0, 0
	for attempt := 1; attempt <= 64; attempt++ {
		if a.Delay(0, attempt) == b.Delay(0, attempt) {
			sameSeed++
		}
		if a.Delay(0, attempt) == a.Delay(1, attempt) {
			sameKey++
		}
	}
	if sameSeed > 2 || sameKey > 2 {
		t.Errorf("collisions: %d across seeds, %d across keys", sameSeed, sameKey)
	}
}

// Without jitter the schedule is plain capped exponential growth.
func TestBackoffExponentialGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 1e-3, Factor: 2, Cap: 6e-3}
	want := []float64{1e-3, 2e-3, 4e-3, 6e-3, 6e-3}
	for i, w := range want {
		if d := b.Delay(0, i+1); math.Abs(d-w) > 1e-15 {
			t.Errorf("attempt %d: delay %v, want %v", i+1, d, w)
		}
	}
	if d := b.Delay(0, 0); d != 1e-3 {
		t.Errorf("attempt clamp: %v", d)
	}
}

// Jittered delays stay inside [d*(1-J), d*(1+J)) and actually vary.
func TestBackoffJitterBounds(t *testing.T) {
	b := Backoff{Base: 10e-3, Factor: 1, Jitter: 0.25, Seed: 9}
	seen := map[float64]bool{}
	for attempt := 1; attempt <= 100; attempt++ {
		d := b.Delay(uint64(attempt), 1)
		if d < 7.5e-3 || d >= 12.5e-3 {
			t.Fatalf("jittered delay %v outside [7.5ms, 12.5ms)", d)
		}
		seen[d] = true
	}
	if len(seen) < 50 {
		t.Errorf("only %d distinct delays in 100 draws", len(seen))
	}
}

// The canonical breaker life cycle, pinned transition by transition:
// closed -> (K consecutive failures) open -> (cooldown) half-open ->
// (probe success) closed.
func TestBreakerOpenHalfOpenClosedCycle(t *testing.T) {
	b := NewBreaker(BreakerPolicy{Threshold: 3, Cooldown: 1.0})
	if b.State() != BreakerClosed {
		t.Fatal("not closed at birth")
	}
	if admit, _ := b.Allow(0); !admit {
		t.Fatal("closed breaker denied offload")
	}
	// Two failures: still closed (threshold is 3).
	for i := 0; i < 2; i++ {
		if b.OnFailure(float64(i)) {
			t.Fatalf("opened after %d failures", i+1)
		}
	}
	// A success resets the consecutive count.
	b.OnSuccess(2)
	for i := 0; i < 2; i++ {
		if b.OnFailure(3 + float64(i)) {
			t.Fatalf("opened after reset + %d failures", i+1)
		}
	}
	// Third consecutive failure at t=5: open.
	if !b.OnFailure(5) {
		t.Fatal("threshold reached without opening")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state %v, want open", b.State())
	}
	// Denied during the cooldown window.
	if admit, _ := b.Allow(5.5); admit {
		t.Fatal("open breaker admitted offload inside cooldown")
	}
	// Cooldown elapsed: exactly one probe is admitted.
	admit, probe := b.Allow(6.0)
	if !admit || !probe {
		t.Fatalf("post-cooldown Allow = (%v,%v), want probe", admit, probe)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if admit, _ := b.Allow(6.0); admit {
		t.Fatal("half-open breaker admitted a second line while probing")
	}
	// Probe succeeds: closed again, offload re-admitted.
	if !b.OnSuccess(6.1) {
		t.Fatal("probe success did not report the close transition")
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v, want closed", b.State())
	}
	if admit, _ := b.Allow(6.2); !admit {
		t.Fatal("re-closed breaker denied offload")
	}
}

// A failed probe reopens the breaker and restarts the cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	b := NewBreaker(BreakerPolicy{Threshold: 1, Cooldown: 1.0})
	if !b.OnFailure(0) {
		t.Fatal("threshold-1 breaker did not open on first failure")
	}
	if _, probe := b.Allow(1.0); !probe {
		t.Fatal("no probe after cooldown")
	}
	if !b.OnFailure(1.5) {
		t.Fatal("probe failure did not report the reopen transition")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state %v, want open", b.State())
	}
	// The cooldown restarts from the reopen instant, not the first open.
	if admit, _ := b.Allow(2.0); admit {
		t.Fatal("cooldown did not restart on reopen")
	}
	if admit, probe := b.Allow(2.5); !admit || !probe {
		t.Fatal("no probe after restarted cooldown")
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if s.String() != want {
			t.Errorf("%d: %q", s, s.String())
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	for name, p := range map[string]Policy{"PerLine": PerLine(), "OneShot": OneShot()} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s policy invalid: %v", name, err)
		}
	}
	bad := []Policy{
		{LineDeadline: -1},
		{LineDeadline: math.NaN()},
		{LineRetries: -1},
		{Backoff: Backoff{Base: -1}},
		{Backoff: Backoff{Jitter: 1.5}},
		{Breaker: BreakerPolicy{Cooldown: -1}},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("policy %d accepted: %+v", i, p)
		}
	}
}

// The presets' breakers encode their postures: PerLine's never opens,
// however many consecutive failures arrive; OneShot's opens on the
// second and never admits a probe afterwards.
func TestPresetBreakers(t *testing.T) {
	per := NewBreaker(PerLine().Breaker)
	for i := 0; i < 1000; i++ {
		if per.OnFailure(float64(i)) {
			t.Fatalf("PerLine breaker opened after %d failures", i+1)
		}
	}
	one := NewBreaker(OneShot().Breaker)
	if one.OnFailure(0) {
		t.Fatal("OneShot breaker opened on the first failure")
	}
	if !one.OnFailure(1) {
		t.Fatal("OneShot breaker stayed closed on the second consecutive failure")
	}
	if admit, probe := one.Allow(1e300); admit || probe {
		t.Errorf("OneShot breaker admitted offload after opening (admit %v probe %v)", admit, probe)
	}
}

func TestShedErrorWrapsCause(t *testing.T) {
	cause := fmt.Errorf("line failed")
	err := &ShedError{Record: 3, Line: 7, Attempts: 2, Cause: cause}
	if !errors.Is(err, cause) {
		t.Error("ShedError does not unwrap to its cause")
	}
	var shed *ShedError
	if !errors.As(error(err), &shed) {
		t.Error("errors.As failed")
	}
	if err.Error() == "" {
		t.Error("empty message")
	}
}
