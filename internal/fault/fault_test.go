package fault

import (
	"errors"
	"math"
	"testing"
)

func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	for i := 0; i < 100; i++ {
		if p.Decide(NVMeCompletionDrop, float64(i)) {
			t.Fatal("nil plan injected")
		}
	}
	if p.TotalInjected() != 0 || p.Injected(NVMeCompletionDrop) != 0 {
		t.Error("nil plan reports injections")
	}
	if p.Resets() != nil {
		t.Error("nil plan has resets")
	}
}

func TestZeroRatePlanInjectsNothing(t *testing.T) {
	p := NewPlan(7, Rule{Point: NVMeCommandLoss, Rate: 0}, Rule{Point: FlashTransient, Rate: 0})
	for i := 0; i < 1000; i++ {
		if p.Decide(NVMeCommandLoss, float64(i)*1e-3) || p.Decide(FlashTransient, float64(i)*1e-3) {
			t.Fatal("zero-rate rule injected")
		}
	}
}

func TestRateOneAlwaysInjects(t *testing.T) {
	p := NewPlan(7, Rule{Point: FlashUncorrectable, Rate: 1})
	for i := 0; i < 50; i++ {
		if !p.Decide(FlashUncorrectable, float64(i)) {
			t.Fatal("rate-1 rule skipped an opportunity")
		}
	}
	if p.Injected(FlashUncorrectable) != 50 {
		t.Errorf("injected %d, want 50", p.Injected(FlashUncorrectable))
	}
}

// Same seed and rules must reproduce the exact decision sequence;
// a different seed must (for a sane hash) produce a different one.
func TestDeterministicDecisionSequence(t *testing.T) {
	rules := []Rule{
		{Point: NVMeCompletionDrop, Rate: 0.3},
		{Point: FlashTransient, Rate: 0.5},
	}
	run := func(seed uint64) []bool {
		p := NewPlan(seed, rules...)
		var out []bool
		for i := 0; i < 200; i++ {
			now := float64(i) * 1.7e-4
			out = append(out, p.Decide(NVMeCompletionDrop, now))
			out = append(out, p.Decide(FlashTransient, now))
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across identical plans", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical 400-decision sequences")
	}
}

func TestRateIsRespectedApproximately(t *testing.T) {
	p := NewPlan(1, Rule{Point: NVMeCommandLoss, Rate: 0.25})
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if p.Decide(NVMeCommandLoss, float64(i)*1e-5) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("empirical rate %.3f for configured 0.25", frac)
	}
}

func TestWindowBoundsInjection(t *testing.T) {
	p := NewPlan(9, Rule{Point: CSEStall, Rate: 1, Start: 1.0, End: 2.0, Duration: 0.1})
	if _, ok := p.DecideDuration(CSEStall, 0.5); ok {
		t.Error("injected before window")
	}
	d, ok := p.DecideDuration(CSEStall, 1.5)
	if !ok || d != 0.1 {
		t.Errorf("inside window: ok=%v dur=%v", ok, d)
	}
	if _, ok := p.DecideDuration(CSEStall, 2.0); ok {
		t.Error("injected at window end (End is exclusive)")
	}
}

func TestMaxCountCapsInjection(t *testing.T) {
	p := NewPlan(3, Rule{Point: FlashUncorrectable, Rate: 1, MaxCount: 2})
	hits := 0
	for i := 0; i < 10; i++ {
		if p.Decide(FlashUncorrectable, float64(i)) {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("injected %d, want MaxCount=2", hits)
	}
}

func TestResetsReturnsScheduledRules(t *testing.T) {
	p := NewPlan(5,
		Rule{Point: NVMeCommandLoss, Rate: 0.1},
		Rule{Point: DeviceReset, At: 0.25, Duration: 0.05},
		Rule{Point: DeviceReset, At: 0.75, Duration: 0.01},
	)
	rs := p.Resets()
	if len(rs) != 2 || rs[0].At != 0.25 || rs[1].At != 0.75 {
		t.Errorf("resets %+v", rs)
	}
	// Rolled points never match a DeviceReset rule.
	if p.Decide(DeviceReset, 0.25) {
		t.Error("DeviceReset must be scheduled, not rolled")
	}
}

func TestInvalidRulesPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad rate":        func() { NewPlan(1, Rule{Point: NVMeCommandLoss, Rate: 1.5}) },
		"negative count":  func() { NewPlan(1, Rule{Point: NVMeCommandLoss, MaxCount: -1}) },
		"inverted window": func() { NewPlan(1, Rule{Point: NVMeCommandLoss, Start: 2, End: 1}) },
		"unknown point":   func() { NewPlan(1, Rule{Point: Point(99)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPointStrings(t *testing.T) {
	for pt, want := range map[Point]string{
		NVMeCommandLoss: "nvme-command-loss", NVMeCompletionDrop: "nvme-completion-drop",
		FlashTransient: "flash-transient", FlashUncorrectable: "flash-uecc",
		CSEStall: "cse-stall", DeviceReset: "device-reset",
	} {
		if pt.String() != want {
			t.Errorf("%d: %q", pt, pt.String())
		}
	}
}

// Each invalid rule class must be rejected by Validate/NewPlanChecked
// with a typed *RuleError naming the offending rule — never silently
// clamped or composed.
func TestValidateRejectsWithTypedError(t *testing.T) {
	cases := map[string][]Rule{
		"negative rate":     {{Point: NVMeCommandLoss, Rate: -0.1}},
		"rate above one":    {{Point: NVMeCommandLoss, Rate: 1.5}},
		"NaN rate":          {{Point: FlashTransient, Rate: math.NaN()}},
		"negative count":    {{Point: NVMeCommandLoss, MaxCount: -1}},
		"negative duration": {{Point: CSEStall, Rate: 1, Duration: -1e-3}},
		"NaN duration":      {{Point: CSEStall, Rate: 1, Duration: math.NaN()}},
		"NaN window":        {{Point: NVMeCommandLoss, Rate: 1, Start: math.NaN()}},
		"inverted window":   {{Point: NVMeCommandLoss, Rate: 1, Start: 2, End: 1}},
		"unknown point":     {{Point: Point(99)}},
		"zero-duration reset": {
			{Point: DeviceReset, At: 0.5},
		},
		"duplicate unbounded rules": {
			{Point: NVMeCompletionDrop, Rate: 0.1},
			{Point: NVMeCompletionDrop, Rate: 0.2},
		},
		"duplicate overlapping windows": {
			{Point: CSEStall, Rate: 0.1, Start: 0, End: 2, Duration: 1e-3},
			{Point: CSEStall, Rate: 0.2, Start: 1, End: 3, Duration: 1e-3},
		},
		"duplicate window inside unbounded": {
			{Point: FlashUncorrectable, Rate: 0.1},
			{Point: FlashUncorrectable, Rate: 0.2, Start: 1, End: 2},
		},
	}
	for name, rules := range cases {
		err := Validate(rules...)
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid rule set", name)
			continue
		}
		var re *RuleError
		if !errors.As(err, &re) {
			t.Errorf("%s: error %T is not a *RuleError", name, err)
		}
		if p, err := NewPlanChecked(1, rules...); err == nil || p != nil {
			t.Errorf("%s: NewPlanChecked accepted an invalid rule set", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewPlan did not panic", name)
				}
			}()
			NewPlan(1, rules...)
		}()
	}
}

// Disjoint windows for one rolled point model per-burst fault rules and
// must stay legal, as must multiple scheduled resets.
func TestValidateAcceptsDisjointWindows(t *testing.T) {
	err := Validate(
		Rule{Point: CSEStall, Rate: 0.5, Start: 0, End: 1, Duration: 1e-3},
		Rule{Point: CSEStall, Rate: 0.5, Start: 1, End: 2, Duration: 1e-3},
		Rule{Point: NVMeCompletionDrop, Rate: 0.5, Start: 2, End: 3},
		Rule{Point: NVMeCompletionDrop, Rate: 0.5, Start: 4},
		Rule{Point: DeviceReset, At: 0.25, Duration: 0.05},
		Rule{Point: DeviceReset, At: 0.75, Duration: 0.01},
	)
	if err != nil {
		t.Fatalf("disjoint windows rejected: %v", err)
	}
}

// Mix64 is the shared hash-per-decision primitive; pin a few values so a
// drive-by "optimization" cannot silently change every seeded schedule
// in the tree.
func TestMix64Pinned(t *testing.T) {
	for in, want := range map[uint64]uint64{
		0:          0xE220A8397B1DCDAF,
		1:          0x910A2DEC89025CC1,
		0xDEADBEEF: 0x4ADFB90F68C9EB9B,
	} {
		if got := Mix64(in); got != want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", in, got, want)
		}
	}
}
