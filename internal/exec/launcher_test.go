package exec

import (
	"bytes"
	"fmt"
	"testing"

	"activego/internal/codegen"
	"activego/internal/fault"
	"activego/internal/metrics"
	"activego/internal/nvme"
	"activego/internal/obs"
	"activego/internal/platform"
	"activego/internal/resilience"
)

// writeRegistry appends reg's snapshot, as JSON, to out.
func writeRegistry(t *testing.T, out *bytes.Buffer, reg *metrics.Registry) {
	t.Helper()
	if err := reg.Snapshot().WriteJSON(out); err != nil {
		t.Fatal(err)
	}
}

// TestLauncherReuseMatchesFresh pins that a reused executor starts its
// run as a new one does. Trace A ends with its variable resident on the
// host; trace B's first record reads that variable's slot on the CSD
// before any record writes it, and B reports to its own registry and
// collector. B runs once on A's executor, through one Launcher, and once
// on a new executor, each on a platform that ran A first. The machines,
// B's registries and B's obs folds must be byte-equal. An executor that
// kept A's residency would pull A's bytes across the link for B's first
// read, and one that kept A's histogram handles would observe B's lines
// into A's registry.
func TestLauncherReuseMatchesFresh(t *testing.T) {
	a, b := loopTrace(6), loopTrace(4)
	opts := Options{Backend: codegen.Native, Partition: codegen.NewPartition(1), Warm: true}
	serveB := func(reuse bool) string {
		p := platform.Default()
		l := new(Launcher)
		optsA := opts
		optsA.Metrics = metrics.New()
		if err := l.Launch(p, a, optsA, nil); err != nil {
			t.Fatal(err)
		}
		p.Sim.Run()
		if len(l.free) != 1 {
			t.Fatalf("%d executors on the free list after a clean run, want 1", len(l.free))
		}
		if !reuse {
			l = new(Launcher)
		}
		optsB := opts
		reg, col := metrics.New(), obs.NewCollector(1e-4, 0)
		optsB.Metrics, optsB.Obs = reg, col
		var failed error
		if err := l.Launch(p, b, optsB, func(err error) { failed = err }); err != nil {
			t.Fatal(err)
		}
		if len(l.free) != 0 {
			t.Fatalf("%d executors left on the free list after a launch, want 0", len(l.free))
		}
		p.Sim.Run()
		if failed != nil {
			t.Fatal(failed)
		}
		var out bytes.Buffer
		fmt.Fprintln(&out, p.Fingerprint())
		writeRegistry(t, &out, reg)
		folded := metrics.New()
		col.Windows().Fold(folded)
		writeRegistry(t, &out, folded)
		return out.String()
	}
	if got, want := serveB(true), serveB(false); got != want {
		t.Errorf("a reused executor ran B differently from a new one:\nreused:\n%s\nnew:\n%s", got, want)
	}
}

// TestLauncherStaleDeviceRuns serves back-to-back requests through one
// Launcher under schedules in which device runs outlive their attempts:
// TestStaleDeviceRunsGolden's, and a CSE stall that outlasts the NVMe
// completion timer at 100 seeds, so that a re-issue can complete while
// the first issue still waits on the CSE. Each request launches from the
// previous one's done callback, as the serving driver's queue does, and
// reports to its own registry; all share one obs collector. The machine,
// every request's outcome and registry, and the obs fold must equal
// those of the same requests on new executors. An executor that went
// back to the launcher while a device run of its own was pending would
// let that run bill a later request, or find no trace at all.
func TestLauncherStaleDeviceRuns(t *testing.T) {
	tr, base, pace, slowest, schedules := staleFixture(t)
	for seed := uint64(1); seed <= 100; seed++ {
		schedules = append(schedules, staleSchedule{
			name: fmt.Sprintf("stall-past-timer/%d", seed),
			arm: func(p *platform.Platform, o *Options) {
				p.InstallFaults(fault.NewPlan(seed,
					fault.Rule{Point: fault.CSEStall, Rate: 0.3, Duration: 3 * slowest},
				), nvme.RetryPolicy{Timeout: 1.5 * slowest, MaxAttempts: 3, Backoff: pace / 10})
				pol := resilience.PerLine()
				o.Resilience = &pol
			},
		})
	}
	const requests = 4
	// serve returns the run's record, and how many requests took an
	// executor from the free list and how many executors stayed live.
	serve := func(sc staleSchedule, reuse bool) (record string, reused, live int) {
		p := platform.Default()
		opts := base
		sc.arm(p, &opts)
		col := obs.NewCollector(pace, 0)
		opts.Obs = col
		regs := make([]*metrics.Registry, requests)
		var out bytes.Buffer
		l := new(Launcher)
		var launch func(k int)
		launch = func(k int) {
			if !reuse {
				l = new(Launcher)
			}
			o := opts
			o.Metrics = metrics.New()
			regs[k] = o.Metrics
			free := len(l.free)
			err := l.Launch(p, tr, o, func(err error) {
				fmt.Fprintf(&out, "request %d done at %v: %v\n", k, p.Sim.Now(), err)
				if k+1 < requests {
					launch(k + 1)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(l.free) < free {
				reused++
			}
		}
		launch(0)
		p.Sim.Run()
		fmt.Fprintln(&out, p.Fingerprint())
		for _, reg := range regs {
			if reg != nil {
				writeRegistry(t, &out, reg)
			}
		}
		folded := metrics.New()
		col.Windows().Fold(folded)
		writeRegistry(t, &out, folded)
		return out.String(), reused, requests - reused - len(l.free)
	}
	var reused, live int
	for _, sc := range schedules {
		got, r, n := serve(sc, true)
		want, _, _ := serve(sc, false)
		if got != want {
			t.Fatalf("%s: requests through one launcher ran differently from requests on new executors:\nreused:\n%s\nnew:\n%s",
				sc.name, got, want)
		}
		reused += r
		live += n
	}
	// The schedules must exercise both sides of the reuse rule.
	if reused == 0 || live == 0 {
		t.Errorf("%d requests reused an executor and %d executors stayed live; want some of each", reused, live)
	}
}
