package exec

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"activego/internal/codegen"
	"activego/internal/inputs"
	"activego/internal/lang/interp"
	"activego/internal/lang/parser"
	"activego/internal/lang/value"
	"activego/internal/metrics"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/resilience"
)

// traceFor runs a small program and returns its trace.
func traceFor(t *testing.T, src string, n int) *interp.Trace {
	t.Helper()
	reg := inputs.NewRegistry()
	reg.Add("v", value.NewVec(make([]float64, n)), inputs.ModeRows)
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	trace, _, err := interp.Run(prog, reg.Context(1))
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

const scanSrc = `v = load("v")
w = vmul(v, 2.0)
s = vsum(w)
`

func TestHostOnlyRun(t *testing.T) {
	trace := traceFor(t, scanSrc, 1<<18)
	p := platform.Default()
	res, err := Run(p, trace, Options{Backend: codegen.C, Partition: codegen.NewPartition()})
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsOnHost != 3 || res.RecordsOnCSD != 0 {
		t.Errorf("records %d/%d", res.RecordsOnHost, res.RecordsOnCSD)
	}
	if res.Duration <= 0 {
		t.Error("zero duration")
	}
	// Host path must move the storage bytes over the link.
	if res.D2HBytes < float64(1<<18*8) {
		t.Errorf("link bytes %v, want >= storage volume", res.D2HBytes)
	}
}

func TestFullOffloadMovesLessData(t *testing.T) {
	trace := traceFor(t, scanSrc, 1<<18)
	host, err := Run(platform.Default(), trace, Options{Backend: codegen.C, Partition: codegen.NewPartition()})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := Run(platform.Default(), trace, Options{
		Backend: codegen.C, Partition: codegen.NewPartition(1, 2, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dev.D2HBytes >= host.D2HBytes/10 {
		t.Errorf("offloaded run moved %v bytes vs host %v; reduction is the whole point",
			dev.D2HBytes, host.D2HBytes)
	}
	if dev.RecordsOnCSD != 3 {
		t.Errorf("csd records %d", dev.RecordsOnCSD)
	}
}

func TestBoundaryCrossingBillsTransfer(t *testing.T) {
	trace := traceFor(t, scanSrc, 1<<18)
	// Offload only the load: w=vmul on the host must pull v across.
	split, err := Run(platform.Default(), trace, Options{
		Backend: codegen.C, Partition: codegen.NewPartition(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if split.D2HBytes < float64(1<<18*8) {
		t.Errorf("split placement moved %v bytes; must ship v to the host", split.D2HBytes)
	}
}

func TestBackendLadderOrdering(t *testing.T) {
	trace := traceFor(t, scanSrc, 1<<18)
	durations := map[string]float64{}
	for _, b := range []codegen.Backend{codegen.C, codegen.Native, codegen.Cython, codegen.Interpreted} {
		res, err := Run(platform.Default(), trace, Options{
			Backend: b, Partition: codegen.NewPartition(), OverheadScale: 1e-6,
		})
		if err != nil {
			t.Fatal(err)
		}
		durations[b.Name] = res.Duration
	}
	if !(durations["interpreted"] > durations["cython"] &&
		durations["cython"] > durations["native"] &&
		durations["native"] >= durations["c"]) {
		t.Errorf("ladder out of order: %v", durations)
	}
}

func TestOverheadChargedOnce(t *testing.T) {
	trace := traceFor(t, scanSrc, 1<<12)
	base, _ := Run(platform.Default(), trace, Options{Backend: codegen.C, Partition: codegen.NewPartition()})
	withOv, _ := Run(platform.Default(), trace, Options{
		Backend: codegen.C, Partition: codegen.NewPartition(), SamplingOverhead: 0.5,
	})
	gap := withOv.Duration - base.Duration
	if gap < 0.49 || gap > 0.51 {
		t.Errorf("overhead gap %v, want 0.5", gap)
	}
}

func TestAvailabilityStretchesOffloadedCompute(t *testing.T) {
	trace := traceFor(t, scanSrc, 1<<18)
	part := codegen.NewPartition(1, 2, 3)
	full, _ := Run(platform.Default(), trace, Options{Backend: codegen.C, Partition: part})
	slowP := platform.Default()
	slowP.Dev.SetAvailability(0.1)
	slow, _ := Run(slowP, trace, Options{Backend: codegen.C, Partition: part})
	if slow.Duration <= full.Duration*1.5 {
		t.Errorf("10%% CSE availability: %v vs %v; offloaded compute must stretch", slow.Duration, full.Duration)
	}
}

// migrationFixture builds a trace with many offloaded compute lines so
// the monitor has room to act.
func migrationFixture(t *testing.T) (*interp.Trace, codegen.Partition, map[int]*plan.LineEstimate) {
	t.Helper()
	src := `v = load("v")
a = vmul(v, 2.0)
b = vexp(a)
c = vlog(b)
d = vsqrt(c)
e = vmul(d, d)
s = vsum(e)
`
	trace := traceFor(t, src, 1<<19)
	part := codegen.NewPartition(1, 2, 3, 4, 5, 6, 7)
	m := plan.MachineFromPlatform(platform.Default())
	// Build estimates straight from the actual trace (a perfect sampler).
	ests := map[int]*plan.LineEstimate{}
	for i := range trace.Records {
		rec := &trace.Records[i]
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
	return trace, part, ests
}

func TestMigrationTriggersUnderStress(t *testing.T) {
	trace, part, ests := migrationFixture(t)
	run := func(migrate bool, avail float64) *Result {
		p := platform.Default()
		// Stress from the very start: the monitor should notice after the
		// first offloaded line.
		p.Dev.ScheduleStress(1e-9, avail, 0)
		mig := MigrationPolicy{}
		if migrate {
			mig = DefaultMigration()
		}
		res, err := Run(p, trace, Options{
			Backend: codegen.Native, Partition: part, Estimates: ests,
			Migration: mig, OverheadScale: 1e-6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(true, 0.05)
	without := run(false, 0.05)
	if !with.Migrated {
		t.Fatal("monitor did not migrate under 5% availability")
	}
	if with.Duration >= without.Duration {
		t.Errorf("migration (%v) must beat staying (%v)", with.Duration, without.Duration)
	}
	if with.RecordsOnHost == 0 {
		t.Error("no records ran on the host after migration")
	}
}

func TestNoMigrationWhenHealthy(t *testing.T) {
	trace, part, ests := migrationFixture(t)
	res, err := Run(platform.Default(), trace, Options{
		Backend: codegen.Native, Partition: part, Estimates: ests,
		Migration: DefaultMigration(), OverheadScale: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated {
		t.Error("migrated on an uncontended device")
	}
}

func TestMigrationRequiresEstimates(t *testing.T) {
	trace, part, _ := migrationFixture(t)
	_, err := Run(platform.Default(), trace, Options{
		Backend: codegen.Native, Partition: part, Migration: DefaultMigration(),
	})
	if err == nil {
		t.Error("migration without estimates must error")
	}
}

func TestProgressTimelineMonotone(t *testing.T) {
	trace, part, ests := migrationFixture(t)
	res, err := Run(platform.Default(), trace, Options{
		Backend: codegen.Native, Partition: part, Estimates: ests,
	})
	if err != nil {
		t.Fatal(err)
	}
	offloaded := 0
	for _, rec := range trace.Records {
		if part.OnCSD(rec.Line) {
			offloaded++
		}
	}
	if len(res.CSDProgress) != offloaded || res.RecordsOnCSD != offloaded {
		t.Fatalf("%d progress points over %d CSD records, want one per offloaded record (%d)",
			len(res.CSDProgress), res.RecordsOnCSD, offloaded)
	}
	prevT, prevF := res.Start, 0.0
	for _, pr := range res.CSDProgress {
		if pr.Time < prevT || pr.Frac < prevF {
			t.Fatalf("progress not monotone: %+v", res.CSDProgress)
		}
		prevT, prevF = pr.Time, pr.Frac
	}
	last := res.CSDProgress[len(res.CSDProgress)-1]
	if last.Frac < 0.999 {
		t.Errorf("final progress %v, want 1", last.Frac)
	}
}

func TestDeterminism(t *testing.T) {
	trace := traceFor(t, scanSrc, 1<<16)
	part := codegen.NewPartition(1, 2)
	var prev float64
	for i := 0; i < 3; i++ {
		res, err := Run(platform.Default(), trace, Options{
			Backend: codegen.Native, Partition: part,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Duration != prev {
			t.Fatalf("run %d: %v != %v (nondeterminism)", i, res.Duration, prev)
		}
		prev = res.Duration
	}
}

func TestPreemptDemandForcesImmediateMigration(t *testing.T) {
	trace, part, ests := migrationFixture(t)
	p := platform.Default()
	// A high-priority tenant demands the device almost immediately; the
	// device stays fully available (no IPC sag), yet ActivePy must vacate
	// at the next line boundary (§III-D case 1).
	p.Dev.DemandAt(1e-6)
	res, err := Run(p, trace, Options{
		Backend: codegen.Native, Partition: part, Estimates: ests,
		Migration: DefaultMigration(), OverheadScale: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Migrated {
		t.Fatal("preempt demand did not trigger migration")
	}
	if res.RecordsOnCSD > 2 {
		t.Errorf("%d records ran on the CSD after an immediate demand", res.RecordsOnCSD)
	}
}

func TestPreemptIgnoredWithoutMigration(t *testing.T) {
	trace, part, _ := migrationFixture(t)
	p := platform.Default()
	p.Dev.DemandAt(1e-6)
	res, err := Run(p, trace, Options{
		Backend: codegen.Native, Partition: part, OverheadScale: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated {
		t.Error("static configuration must not migrate")
	}
}

// loopTrace fabricates n dynamic records alternating between two lines
// that hand one variable back and forth, with a storage read and kernel,
// glue and copy work.
func loopTrace(n int) *interp.Trace {
	tr := &interp.Trace{}
	for i := 0; i < n; i++ {
		tr.Records = append(tr.Records, interp.LineRecord{
			Line:   1 + i%2,
			Cost:   value.Cost{StorageBytes: 1 << 16, KernelWork: 1e6, GlueWork: 1e4, CopyBytes: 4096},
			Reads:  []interp.VarUse{{Name: "x", Bytes: 4096}},
			Writes: []interp.VarUse{{Name: "x", Bytes: 4096}},
		})
	}
	return tr
}

// TestLineHistogramsRegisterOnUse pins where the per-line latency
// histograms come from: the executor resolves a unit's histogram when
// that unit first completes a line, so a host-only run with Metrics set
// observes every line on the host histogram and registers no empty
// exec.line.csd.seconds.
func TestLineHistogramsRegisterOnUse(t *testing.T) {
	reg := metrics.New()
	opts := Options{Backend: codegen.Native, Partition: codegen.NewPartition(), Metrics: reg}
	if _, err := Run(platform.Default(), loopTrace(10), opts); err != nil {
		t.Fatal(err)
	}
	counts := map[string]uint64{}
	for _, h := range reg.Snapshot().Histograms {
		counts[h.Name] = h.Count
	}
	if n, ok := counts[metrics.MetricExecLineCSD]; ok {
		t.Errorf("host-only run registered %s (%d observations)", metrics.MetricExecLineCSD, n)
	}
	if n := counts[metrics.MetricExecLineHost]; n != 10 {
		t.Errorf("%s observed %d lines, want 10", metrics.MetricExecLineHost, n)
	}
}

// TestReplayAllocationsPerRecord pins the executor's allocation
// discipline: a replayed record allocates nothing, on the host or
// offloaded through the call queue, flash read included. On the
// call-queue input line 1 runs on the CSD and line 2 on the host, so
// every record also pulls the variable across the link; the host-only
// input runs both lines on the host. Per-run costs (the platform, the
// executor, its pools) cancel in the difference between traces of n and
// 2n records.
func TestReplayAllocationsPerRecord(t *testing.T) {
	const n = 200
	for _, tc := range []struct {
		name string
		part codegen.Partition
		want float64 // allocations per line-1 record
	}{{"host only", codegen.NewPartition(), 0}, {"call queue", codegen.NewPartition(1), 0}} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(records int) float64 {
				tr := loopTrace(records)
				opts := Options{Backend: codegen.Native, Partition: tc.part}
				return testing.AllocsPerRun(5, func() {
					if _, err := Run(platform.Default(), tr, opts); err != nil {
						t.Fatal(err)
					}
				})
			}
			lineOne := float64(n / 2)
			if per := (allocs(2*n) - allocs(n)) / lineOne; per > tc.want {
				t.Errorf("%.2f allocations per line-1 record, want at most %v", per, tc.want)
			}
		})
	}
}

// TestLaunchBytesPerRequest pins that a launched request allocates
// nothing that grows with its trace: warm requests of n and of 2n
// records, line 1 offloaded, allocate the same bytes when each has a
// fresh Launcher. Only Run returns a progress timeline, so only Run
// builds one; a launched request that built it would allocate 16 B more
// per offloaded record. Through one Launcher, a warm request reuses the
// previous request's executor and allocates nothing at all, also with a
// resilience policy armed, whose breaker the executor keeps in place.
func TestLaunchBytesPerRequest(t *testing.T) {
	const n, requests = 200, 20
	bytesPerRequest := func(records int, reuse bool, pol *resilience.Policy) uint64 {
		tr := loopTrace(records)
		opts := Options{Backend: codegen.Native, Partition: codegen.NewPartition(1), Warm: true, Resilience: pol}
		p := platform.Default()
		var failed error
		done := func(err error) {
			if err != nil {
				failed = err
			}
		}
		l := new(Launcher)
		serve := func(k int) {
			for range k {
				if !reuse {
					l = new(Launcher)
				}
				if err := l.Launch(p, tr, opts, done); err != nil {
					t.Fatal(err)
				}
				p.Sim.Run()
			}
		}
		serve(3) // fill the platform's pools
		// Anything else the process allocates meanwhile only adds, so
		// keep the least of three measurements.
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			serve(requests)
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/requests)
		}
		if failed != nil {
			t.Fatal(failed)
		}
		return least
	}
	if short, long := bytesPerRequest(n, false, nil), bytesPerRequest(2*n, false, nil); short != long {
		t.Errorf("fresh launchers: a request of %d records allocates %d B, of %d records %d B: want equal",
			n, short, 2*n, long)
	}
	for _, records := range []int{n, 2 * n} {
		if b := bytesPerRequest(records, true, nil); b != 0 {
			t.Errorf("one launcher: a warm request of %d records allocates %d B, want 0", records, b)
		}
	}
	perLine := resilience.PerLine()
	if b := bytesPerRequest(n, true, &perLine); b != 0 {
		t.Errorf("one launcher, resilience.PerLine armed: a warm request allocates %d B, want 0", b)
	}
	// The breaker lives inside the executor, which still fits the 416 B
	// size class.
	if size := unsafe.Sizeof(executor{}); size > 416 {
		t.Errorf("an executor takes %d B, want at most 416", size)
	}
}
