package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"activego/internal/codegen"
	"activego/internal/exec"
	"activego/internal/fault"
	"activego/internal/inputs"
	"activego/internal/lang/interp"
	"activego/internal/lang/parser"
	"activego/internal/lang/value"
	"activego/internal/nvme"
	"activego/internal/par"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/resilience"
	"activego/internal/trace"
)

// chaosTrace builds a small three-line program trace: a storage load, a
// compute line, and a reduction — one record per failure surface.
func chaosTrace(t testing.TB, n int) *interp.Trace {
	t.Helper()
	reg := inputs.NewRegistry()
	reg.Add("v", value.NewVec(make([]float64, n)), inputs.ModeRows)
	prog, err := parser.Parse("v = load(\"v\")\nw = vmul(v, 2.0)\ns = vsum(w)\n")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := interp.Run(prog, reg.Context(1))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// chaosConfig is the shared sweep configuration: a generous deadline and
// retry budget so most schedules recover, stalls sized to straddle the
// timeout, and scaled-down overheads. MaxRate reaches 1.0 so the tail of
// the sweep — near-certain uncorrectable flash errors — exhausts every
// rung of the ladder and exercises the typed shed path.
func chaosConfig(t testing.TB, schedules int, pool *par.Pool) Config {
	t.Helper()
	return Config{
		Seed:      1,
		Schedules: schedules,
		Trace:     chaosTrace(t, 1<<12),
		Partition: codegen.NewPartition(1, 2, 3),
		Backend:   codegen.Native,
		Policy: resilience.Policy{
			LineDeadline: 20e-3,
			LineRetries:  2,
			Backoff:      resilience.Backoff{Base: 1e-4, Factor: 2, Cap: 2e-3, Jitter: 0.25, Seed: 1},
			Breaker:      resilience.BreakerPolicy{Threshold: 3, Cooldown: 5e-3},
		},
		Retry:         nvme.RetryPolicy{Timeout: 5e-3, MaxAttempts: 2, Backoff: 5e-4},
		OverheadScale: 1e-6,
		Params:        ScheduleParams{MaxRate: 1.0},
		Pool:          pool,
	}
}

// The chaos acceptance bar: a thousand seeded random fault schedules,
// every one terminating with a correct result or a typed clean failure —
// no violations, and the zero-fault schedule bit-identical to clean.
func TestChaos1000SchedulesHoldInvariants(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	rep, err := Run(chaosConfig(t, n, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CleanMatch {
		t.Error("zero-fault armed schedule diverged from the clean run")
	}
	for i, v := range rep.Violations {
		if i == 5 {
			t.Errorf("... and %d more violations", len(rep.Violations)-5)
			break
		}
		t.Errorf("schedule %d (seed %#x, %d rules): %s", v.Index, v.Seed, v.Rules, v.Detail)
	}
	if rep.Completed+rep.CleanFailures != rep.Schedules-len(rep.Violations) {
		t.Errorf("outcome counts inconsistent: %+v", rep)
	}
	if rep.Completed == 0 {
		t.Error("no schedule completed — the sweep is not exercising recovery")
	}
	if rep.CleanFailures == 0 {
		t.Error("no schedule shed cleanly — the sweep is not reaching the last rung")
	}
	t.Log(rep.Summary())
}

// The generator is pure: same (seed, index, params) — same rules; and
// every generated schedule must pass fault.Validate (the harness treats
// an invalid schedule as a violation, so this pins the contract).
func TestScheduleGeneratorPureAndValid(t *testing.T) {
	params := ScheduleParams{MaxRate: 0.6, Horizon: 1e-3}
	for i := 0; i < 500; i++ {
		a := Schedule(42, i, params)
		b := Schedule(42, i, params)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("schedule %d not reproducible:\n%+v\n%+v", i, a, b)
		}
		if err := fault.Validate(a...); err != nil {
			t.Fatalf("schedule %d invalid: %v\nrules %+v", i, err, a)
		}
	}
	// Different indices must not collapse onto one schedule.
	if reflect.DeepEqual(Schedule(42, 1, params), Schedule(42, 2, params)) {
		t.Error("adjacent indices generated identical schedules")
	}
}

// Satellite: the whole chaos report — every per-schedule verdict — must
// be byte-identical at -j 1 and -j 8. The sweep fans out over the pool;
// determinism of the aggregate is the parallel layer's contract.
func TestResilienceParallelInvariance(t *testing.T) {
	n := 64
	serial, err := Run(chaosConfig(t, n, nil))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(chaosConfig(t, n, par.New(8)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("chaos report differs between -j1 and -j8:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// FuzzFaultSchedule drives arbitrary rule fields through the validator
// and, when a plan is accepted, through a tiny resilient run: NewPlan
// must never panic on validated input, and every accepted plan must
// terminate the run cleanly (completed, shed, or typed error — the
// harness classifies; a panic fails the fuzz).
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), 0.5, 0.0, 0.0, 1e-3, 2, int64(1))
	f.Add(uint64(7), 1.0, 1e-4, 5e-4, 0.0, 0, int64(0))
	f.Add(uint64(9), 0.0, -1.0, 0.0, -1e-3, -1, int64(2))
	tr := chaosTrace(f, 1<<8)
	f.Fuzz(func(t *testing.T, seed uint64, rate, start, end, duration float64, maxCount int, ptRaw int64) {
		pt := fault.Point(((ptRaw % 5) + 5) % 5) // stochastic points only
		rule := fault.Rule{
			Point: pt, Rate: rate, Start: start, End: end,
			Duration: duration, MaxCount: maxCount,
		}
		plan, err := fault.NewPlanChecked(seed, rule)
		if err != nil {
			return // rejected with a typed error: exactly the contract
		}
		cfg := chaosConfig(t, 0, nil)
		cfg.Trace = tr
		pol := cfg.Policy
		pol.Backoff.Seed = seed
		p := platform.Default()
		p.InstallFaults(plan, cfg.Retry)
		res, rerr := exec.Run(p, tr, exec.Options{
			Backend: cfg.Backend, Partition: cfg.Partition,
			OverheadScale: cfg.OverheadScale, Resilience: &pol,
		})
		if rerr != nil {
			var shed *resilience.ShedError
			if !errors.As(rerr, &shed) {
				t.Fatalf("untyped failure: %v", rerr)
			}
			return
		}
		if got, want := res.RecordsOnCSD+res.RecordsOnHost, len(tr.Records); got != want {
			t.Fatalf("lost records: %d of %d", got, want)
		}
	})
}

// movesFixture is a loop-heavy program — dozens of dynamic records over
// a few source lines — with every line offloaded and estimates built
// straight from the trace (a perfect sampler), so breaker cooldowns,
// half-open probes and §III-D migrations all have room to land mid-run.
func movesFixture(t testing.TB) (*interp.Trace, codegen.Partition, map[int]*plan.LineEstimate) {
	t.Helper()
	reg := inputs.NewRegistry()
	reg.Add("v", value.NewVec(make([]float64, 1<<14)), inputs.ModeRows)
	prog, err := parser.Parse(`v = load("v")
s = 0.0
for i in range(12):
    a = vmul(v, 1.5)
    b = vexp(a)
    s = s + vsum(b)
`)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := interp.Run(prog, reg.Context(1))
	if err != nil {
		t.Fatal(err)
	}
	m := plan.MachineFromPlatform(platform.Default())
	ests := map[int]*plan.LineEstimate{}
	for i := range tr.Records {
		rec := &tr.Records[i]
		e := ests[rec.Line]
		if e == nil {
			e = &plan.LineEstimate{Line: rec.Line}
			ests[rec.Line] = e
		}
		e.Execs++
		ct := rec.Cost.KernelWork / (float64(m.HostCores) * m.HostRate)
		e.CTHost += ct
		e.CTDev += m.C * ct
		e.SDev += float64(rec.Cost.StorageBytes) / m.FlashBW
		e.SHost += float64(rec.Cost.StorageBytes) / m.D2HBW
	}
	return tr, codegen.NewPartition(1, 2, 3, 4, 5, 6), ests
}

// checkMoves reads the run's host<->device moves off the exec lane in
// record order. Host-ward moves (migrate, breaker-open) and device-ward
// ones (breaker-probe) must alternate, starting host-ward; after a
// migrate nothing moves again and no line runs on the CSD. Together
// these say a move is billed at most once.
func checkMoves(rec *trace.Recorder) (moves map[string]int, err error) {
	moves = map[string]int{}
	hostward, migrated := false, false
	var migratedAt float64
	for _, in := range rec.Instants() {
		if in.Component != "exec" || (in.Name != "migrate" && in.Name != "breaker-open" && in.Name != "breaker-probe") {
			continue
		}
		if migrated {
			return nil, fmt.Errorf("%s at %g after migrate at %g", in.Name, in.At, migratedAt)
		}
		toHost := in.Name != "breaker-probe"
		if toHost == hostward {
			return nil, fmt.Errorf("%s at %g repeats the previous move's direction", in.Name, in.At)
		}
		hostward = toHost
		if in.Name == "migrate" {
			migrated, migratedAt = true, in.At
		}
		moves[in.Name]++
	}
	if migrated {
		for _, sp := range rec.Spans() {
			if sp.Component == "exec" && strings.HasSuffix(sp.Name, "@csd") && sp.Start > migratedAt {
				return nil, fmt.Errorf("%s ran on the CSD at %g after migrate at %g", sp.Name, sp.Start, migratedAt)
			}
		}
	}
	return moves, nil
}

// Every host<->device move goes through one actuator, so under any
// interleaving of availability sags, faults and the §III-D monitor the
// moves alternate direction, a migration is billed at most once, and
// each run still ends completed or typed-clean on a drained platform —
// under the static per-line and one-shot presets as under the full
// ladder.
func TestMovesAlternateAndBillOnce(t *testing.T) {
	tr, part, ests := movesFixture(t)
	base := chaosConfig(t, 0, nil)
	run := func(p *platform.Platform, pol resilience.Policy) (*exec.Result, error) {
		return exec.Run(p, tr, exec.Options{
			Backend: codegen.Native, Partition: part, Estimates: ests,
			Migration:     exec.DefaultMigration(),
			OverheadScale: base.OverheadScale, Resilience: &pol,
		})
	}
	clean, err := run(platform.Default(), base.Policy)
	if err != nil {
		t.Fatal(err)
	}
	params := ScheduleParams{MaxRate: 1.0, Horizon: 2 * clean.Duration}
	// The chaos ladder's cooldown is sized for its own three-line trace;
	// here it shrinks to a fraction of the clean run, so half-open probes
	// land while partition lines remain.
	ladder := base.Policy
	ladder.Breaker.Cooldown = clean.Duration / 4
	postures := []struct {
		name string
		pol  resilience.Policy
	}{
		{"PerLine", resilience.PerLine()},
		{"OneShot", resilience.OneShot()},
		{"ladder", ladder},
	}

	const schedules = 200
	seen := map[string]int{}
	for i := 0; i < schedules; i++ {
		seed := fault.Mix64(base.Seed ^ uint64(i)*0xD1342543DE82EF95)
		rules := Schedule(seed, i, params)
		for _, ps := range postures {
			fail := func(format string, args ...any) {
				t.Errorf("schedule %d (seed %#x) %s: %s", i, seed, ps.name, fmt.Sprintf(format, args...))
			}
			p := platform.Default()
			rec := trace.New()
			p.SetRecorder(rec)
			// 0-3 seeded availability sags, independent of the rules.
			s := fault.NewStream(fault.Mix64(seed ^ 0x5A65))
			for k := int(s.Uniform() * 4); k > 0; k-- {
				at := s.Uniform() * params.Horizon
				p.Dev.ScheduleStress(at, 0.05+0.75*s.Uniform(), (0.1+s.Uniform())*params.Horizon/4)
			}
			plan, err := fault.NewPlanChecked(seed, rules...)
			if err != nil {
				t.Fatalf("schedule %d: %v", i, err)
			}
			p.InstallFaults(plan, base.Retry)
			pol := ps.pol
			pol.Backoff.Seed = seed
			res, rerr := run(p, pol)

			moves, err := checkMoves(rec)
			if err != nil {
				fail("%v", err)
				continue
			}
			if ps.name == "PerLine" && moves["breaker-open"] != 0 {
				fail("%d breaker opens", moves["breaker-open"])
			}
			if ps.name == "OneShot" && (moves["breaker-open"] > 1 || moves["breaker-probe"] != 0) {
				fail("%d opens and %d probes, want at most 1 and 0", moves["breaker-open"], moves["breaker-probe"])
			}
			if err := p.Drained(); err != nil {
				fail("platform not drained: %v", err)
			}
			var shed *resilience.ShedError
			switch {
			case rerr == nil:
				if got := res.RecordsOnCSD + res.RecordsOnHost; got != len(tr.Records) {
					fail("%d of %d records accounted for", got, len(tr.Records))
				}
				want := int(res.BreakerOpens + res.BreakerProbes)
				if res.Migrated {
					want++
				}
				if got := moves["migrate"] + moves["breaker-open"] + moves["breaker-probe"]; got != want {
					fail("%d move instants, Result counts %d", got, want)
				}
			case errors.As(rerr, &shed):
				seen["shed"]++
			default:
				fail("untyped failure: %v", rerr)
			}
			for name, n := range moves {
				seen[name] += n
			}
		}
	}
	for _, what := range []string{"migrate", "breaker-open", "breaker-probe", "shed"} {
		if seen[what] == 0 {
			t.Errorf("the sweep never saw a %s: the property holds vacuously", what)
		}
	}
	t.Logf("%d schedules x %d postures: %v", schedules, len(postures), seen)
}
