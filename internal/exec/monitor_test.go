package exec

// White-box tests for the §III-D monitor's edges. The black-box
// migration behavior is covered in exec_test.go; these pin the decision
// logic itself by building an executor mid-run and calling monitor()
// at a line boundary, the only place it ever runs.

import (
	"reflect"
	"testing"

	"activego/internal/codegen"
	"activego/internal/lang/interp"
	"activego/internal/metrics"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/sim"
)

// monitorFixture builds an executor paused at the boundary after record
// 0, with records 1 and 2 still to run on the CSD. The device is at 50%
// availability, so the observed rate sags well below the default
// policy's IPC fraction and the cost model runs with slowdown 2. The
// estimate and bandwidth numbers are chosen so the decision hinges on
// the lazy-bytes term:
//
//	remDev      = 2 lines x CTDev 0.4 x slowdown 2      = 1.6 s
//	migrateCost = regen (~0) + lazyBytes/BW + remHost 0.1 s
//
// so one link-bandwidth-sized variable (1 s to pull) says migrate
// (1.1 < 1.6) and two distinct ones (2.1 > 1.6) say stay.
func monitorFixture(t *testing.T, reads1, reads2 []interp.VarUse) *executor {
	t.Helper()
	p := platform.Default()
	p.Dev.SetAvailability(0.5)
	tr := &interp.Trace{Records: []interp.LineRecord{
		{Line: 1},
		{Line: 2, Reads: reads1},
		{Line: 3, Reads: reads2},
	}}
	ests := map[int]*plan.LineEstimate{
		2: {Line: 2, Execs: 1, CTDev: 0.4, CTHost: 0.05},
		3: {Line: 3, Execs: 1, CTDev: 0.4, CTHost: 0.05},
	}
	linkBytes := int64(p.Cfg.Inter.D2HBandwidth) // 1 second of link time
	resident := map[string]varState{
		"x": {unit: UnitCSD, bytes: linkBytes},
		"y": {unit: UnitCSD, bytes: linkBytes},
		"h": {unit: UnitHost, bytes: linkBytes},
	}
	slots := tr.Slots()
	varHome := make([]varState, slots.Count)
	for i := range tr.Records {
		for k, s := range slots.Reads(i) {
			varHome[s] = resident[tr.Records[i].Reads[k].Name]
		}
	}
	return &executor{
		p:     p,
		trace: tr,
		opts: Options{
			Backend:       codegen.Native,
			Partition:     codegen.NewPartition(1, 2, 3),
			Estimates:     ests,
			Migration:     DefaultMigration(),
			OverheadScale: 1e-9 / codegen.RegenOverhead,
		},
		idx:          0,
		slots:        slots,
		varHome:      varHome,
		res:          &Result{},
		lastObserved: p.Dev.CSE.Rate(),
	}
}

func use(name string) interp.VarUse { return interp.VarUse{Name: name, Bytes: 1} }

// A device-resident variable read by BOTH remaining lines must be
// priced once: migration's data moves lazily and the first touch moves
// the variable home, so double-counting would wrongly keep the task on
// a sagging device. With x counted once the projection says migrate.
func TestMonitorCountsSharedVariableOnce(t *testing.T) {
	e := monitorFixture(t, []interp.VarUse{use("x")}, []interp.VarUse{use("x")})
	if !e.monitor() {
		t.Fatal("monitor stayed; shared device variable was double-counted in the migration cost")
	}
	if !e.res.Migrated || e.res.MigratedAt != e.p.Sim.Now() {
		t.Errorf("migration not recorded: %+v", e.res)
	}
}

// Two DISTINCT device-resident variables genuinely cost two transfers,
// which tips the model to stay — the converse that proves the dedup
// above is per-variable, not a blanket undercount.
func TestMonitorPricesDistinctVariablesIndividually(t *testing.T) {
	e := monitorFixture(t, []interp.VarUse{use("x")}, []interp.VarUse{use("y")})
	if e.monitor() {
		t.Fatal("monitor migrated; two distinct device variables should have priced the move out")
	}
	if e.res.Migrated {
		t.Error("result marked migrated without migration")
	}
}

// Host-resident variables never enter the lazy-bytes term: they are
// already on the destination side.
func TestMonitorIgnoresHostResidentReads(t *testing.T) {
	e := monitorFixture(t, []interp.VarUse{use("h")}, []interp.VarUse{use("h")})
	if !e.monitor() {
		t.Fatal("monitor priced host-resident reads into the migration cost")
	}
}

// remDev == 0 — no remaining offloaded work the estimates can price —
// must be a no-op even under a heavy rate sag: with nothing left to
// re-estimate there is nothing migration could save.
func TestMonitorNoOpWithoutRemainingEstimatedWork(t *testing.T) {
	// Case 1: the remaining lines have no estimates at all.
	e := monitorFixture(t, nil, nil)
	e.opts.Estimates = map[int]*plan.LineEstimate{}
	if e.monitor() {
		t.Error("migrated with no estimates for the remaining lines")
	}
	// Case 2: estimates exist but predict zero executions.
	e = monitorFixture(t, nil, nil)
	e.opts.Estimates[2].Execs = 0
	e.opts.Estimates[3].Execs = 0
	if e.monitor() {
		t.Error("migrated with zero-exec estimates")
	}
	// Case 3: the sagging task is at its last offloaded record — nothing
	// remains past idx, so remDev is 0 regardless of estimates.
	e = monitorFixture(t, nil, nil)
	e.idx = 2
	if e.monitor() {
		t.Error("migrated at the final record with no remaining work")
	}
}

// A preempt demand (§III-D case 1) vacates immediately — no cost model.
// The fixture is the stay-priced one (two distinct variables), so a
// migration here can only have come from the preempt branch; the demand
// must also be acknowledged so the next tenant sees a clear flag.
func TestMonitorPreemptVacatesWithoutCostModel(t *testing.T) {
	e := monitorFixture(t, []interp.VarUse{use("x")}, []interp.VarUse{use("y")})
	e.p.Dev.DemandAt(1e-9)
	e.p.Sim.Run() // deliver the demand through the command pages
	if !e.p.Dev.PreemptRequested() {
		t.Fatal("demand not latched")
	}
	if !e.monitor() {
		t.Fatal("monitor ignored a preempt demand")
	}
	if !e.res.Migrated {
		t.Error("preempt vacate not recorded as a migration")
	}
	if e.p.Dev.PreemptRequested() {
		t.Error("preempt demand not acknowledged (ClearPreempt)")
	}
	// Once vacated, further boundaries are no-ops: the task is host-side.
	if e.monitor() {
		t.Error("monitor acted again after migrating")
	}
}

// Satellite regression: an availability signal that flaps — sag,
// recover, sag again — must not re-trigger migration. §III-D migration
// is one-way: after the first move the task is host-side, later
// boundaries are no-ops regardless of what the rate signal does, and no
// second regeneration or data pull is ever billed.
func TestMonitorOscillationMigratesExactlyOnce(t *testing.T) {
	e := monitorFixture(t, []interp.VarUse{use("x")}, []interp.VarUse{use("x")})
	if !e.monitor() {
		t.Fatal("first sag must migrate")
	}
	migratedAt := e.res.MigratedAt
	pending := e.p.Sim.Pending() // the one scheduled regen + advance
	linkBytes := e.p.Topo.D2H.TotalBytes()

	for cycle := 0; cycle < 8; cycle++ {
		// Recover fully, then sag twice as deep as the fixture's 50%.
		e.p.Dev.SetAvailability(1.0)
		if e.monitor() {
			t.Fatalf("cycle %d: migrated again on a healthy device", cycle)
		}
		e.p.Dev.SetAvailability(0.25)
		if e.monitor() {
			t.Fatalf("cycle %d: migrated a second time on the flap's sag", cycle)
		}
	}

	if !e.res.Migrated || e.res.MigratedAt != migratedAt {
		t.Errorf("migration record moved: Migrated=%v MigratedAt=%v want %v",
			e.res.Migrated, e.res.MigratedAt, migratedAt)
	}
	if got := e.p.Sim.Pending(); got != pending {
		t.Errorf("flap cycles scheduled %d extra events (double regen/advance)", got-pending)
	}
	if got := e.p.Topo.D2H.TotalBytes(); got != linkBytes {
		t.Errorf("flap cycles billed %v extra link bytes", got-linkBytes)
	}
}

// Black-box counterpart: a full run under an oscillating co-tenant must
// report one migration — and adding more flap cycles after the first
// sag must not change the Result at all (the migrated task runs on the
// host, deaf to device availability).
func TestMonitorOscillationRunInvariant(t *testing.T) {
	tr, part, ests := migrationFixture(t)
	// Calibrate on permanent stress: when does the cost model tip, and
	// how long does the migrated run take?
	cal := platform.Default()
	cal.Dev.ScheduleStress(1e-9, 0.05, 0)
	ref, err := Run(cal, tr, Options{
		Backend: codegen.Native, Partition: part, Estimates: ests,
		Migration: DefaultMigration(), UseCallQueue: true, OverheadScale: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Migrated {
		t.Fatal("calibration run did not migrate")
	}
	// The first sag persists past the migration instant, then recovers
	// inside the post-migration tail; later flap cycles land in that
	// tail, where the host-side task no longer measures the device.
	tail := ref.Duration - ref.MigratedAt
	first := ref.MigratedAt + tail/4
	cycle := tail / 8

	run := func(flaps int) *Result {
		p := platform.Default()
		p.Dev.ScheduleStress(1e-9, 0.05, first)
		for i := 1; i < flaps; i++ {
			p.Dev.ScheduleStress(first+sim.Time(i)*cycle, 0.05, cycle/2)
		}
		m := metrics.New()
		res, err := Run(p, tr, Options{
			Backend: codegen.Native, Partition: part, Estimates: ests,
			Migration: DefaultMigration(), UseCallQueue: true, OverheadScale: 1e-6,
			Metrics: m,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Counter(metrics.MetricExecMigrations).Value(); got != 1 {
			t.Errorf("%d flaps: %s = %v, want exactly 1", flaps, metrics.MetricExecMigrations, got)
		}
		return res
	}

	one := run(1)
	if !one.Migrated {
		t.Fatal("run under stress did not migrate")
	}
	many := run(6)
	if !reflect.DeepEqual(one, many) {
		t.Errorf("extra flap cycles changed the run:\none  %+v\nmany %+v", one, many)
	}
}
