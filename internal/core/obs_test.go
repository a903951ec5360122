package core_test

import (
	"slices"
	"testing"

	"activego/internal/analysis"
	"activego/internal/core"
	"activego/internal/lang/value"
)

// TestObsWindowDoesNotPerturbRun pins the nil-is-inert contract at the
// pipeline level: a run observed under a windowed collector must be
// bit-identical in every simulated outcome to the same run with
// observation off — recording never schedules events or perturbs time.
func TestObsWindowDoesNotPerturbRun(t *testing.T) {
	run := func(window float64) *core.Outcome {
		reg := scanRegistry(1 << 16)
		rt := newRuntime()
		rt.PreloadInputs(reg)
		cfg := core.DefaultConfig()
		cfg.OverheadScale = 1e-4
		cfg.ObsWindow = window
		out, err := rt.Run(scanProgram, reg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := run(0)
	observed := run(plain.Exec.Duration / 8)

	if plain.Obs != nil || plain.Drift != nil {
		t.Error("ObsWindow=0 must leave Obs and Drift nil")
	}
	if observed.Obs == nil || observed.Drift == nil {
		t.Fatal("windowed run must populate Obs and Drift")
	}
	if observed.Exec.Duration != plain.Exec.Duration {
		t.Errorf("observation perturbed the simulation: %v vs %v",
			observed.Exec.Duration, plain.Exec.Duration)
	}
	for _, name := range []string{"n", "s"} {
		a, _ := plain.Env.Get(name)
		b, _ := observed.Env.Get(name)
		if a != b {
			t.Errorf("%s: %v vs %v", name, a, b)
		}
	}
	nv, _ := observed.Env.Get("n")
	if int64(nv.(value.Int)) != int64(1<<16/100*49) {
		t.Errorf("n = %v", nv)
	}

	// The collector attributed costs to the offloaded scan lines.
	if got := observed.Obs.Windows().Count(); got < 2 {
		t.Errorf("collector spanned %d windows, want >= 2", got)
	}
	names := observed.Obs.Windows().Names()
	if len(names) == 0 {
		t.Fatal("collector observed no series")
	}
	// An in-model run must not raise AV012 — the plan's own costs fit.
	if stale := observed.Drift.StaleLines(); len(stale) != 0 {
		t.Errorf("undisturbed run flagged stale lines %v", stale)
	}
}

// loopScan executes its reduction line many times, so windowed
// observation spreads it over enough windows for drift scoring to build
// a stale streak.
const loopScan = `total = 0.0
for blk in range(16):
    b = load_block("sensors", blk, 16)
    total = total + vsum(b)
`

// TestRunFlagsDriftOnSlowedUnit pins Run's AV012 path: when the unit a
// plan runs on slows after planning, windowed observation must flag the
// affected lines model-stale and Run must surface them as AV012
// advisories. loopScan plans all-host, so the host CPU is the unit to
// slow; migration is off so the plan stays put.
func TestRunFlagsDriftOnSlowedUnit(t *testing.T) {
	run := func(hostAvail, window float64) *core.Outcome {
		t.Helper()
		reg := scanRegistry(1 << 16)
		rt := newRuntime()
		rt.PreloadInputs(reg)
		rt.Plat.Host.CPU.SetAvailability(hostAvail)
		cfg := core.DefaultConfig()
		cfg.Migration = false
		cfg.OverheadScale = 1e-4
		cfg.ObsWindow = window
		out, err := rt.Run(loopScan, reg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	clean := run(1, 0)
	if lines := clean.Plan.Partition.Lines(); len(lines) != 0 {
		t.Fatalf("loopScan offloads %v; the test needs an all-host plan", lines)
	}

	slowed := run(0.1, clean.Exec.Duration/8)
	stale := slowed.Drift.StaleLines()
	if len(stale) == 0 {
		t.Fatal("a host at 10% availability raised no stale lines")
	}
	var av012 []int
	for _, d := range slowed.Advisories {
		if d.Code == analysis.CodeDrift {
			av012 = append(av012, d.Line)
		}
	}
	if !slices.Equal(av012, stale) {
		t.Errorf("%s advisories on lines %v, want one per stale line %v", analysis.CodeDrift, av012, stale)
	}
}

// TestProvenanceAttached pins that every Analyze carries the frozen
// provenance record the explain renderer and drift scorer consume.
func TestProvenanceAttached(t *testing.T) {
	reg := scanRegistry(1 << 18)
	rt := newRuntime()
	rt.PreloadInputs(reg)
	_, _, planRes, err := rt.Analyze(scanProgram, reg)
	if err != nil {
		t.Fatal(err)
	}
	p := planRes.Provenance
	if p == nil {
		t.Fatal("plan result missing provenance")
	}
	if p.THost != planRes.THost || p.TCSD != planRes.TCSD {
		t.Errorf("provenance totals %v/%v vs plan %v/%v", p.THost, p.TCSD, planRes.THost, planRes.TCSD)
	}
	byLine := p.ByLine()
	for _, ln := range planRes.Partition.Lines() {
		lp := byLine[ln]
		if lp == nil {
			t.Fatalf("offloaded line %d missing from provenance", ln)
		}
		if !lp.OnCSD {
			t.Errorf("line %d provenance says host, plan says csd", ln)
		}
	}
}
