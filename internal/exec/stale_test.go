package exec

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"activego/internal/codegen"
	"activego/internal/fault"
	"activego/internal/lang/interp"
	"activego/internal/metrics"
	"activego/internal/nvme"
	"activego/internal/obs"
	"activego/internal/platform"
	"activego/internal/resilience"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// staleSrc is a storage load followed by six offloadable kernels, so a
// line's device time is mostly CSE compute and an availability sag
// stretches it.
const staleSrc = `v = load("v")
a = vmul(v, 2.0)
b = vexp(a)
c = vlog(b)
d = vsqrt(c)
e = vmul(d, d)
s = vsum(e)
`

// staleSchedule arms a platform and a run's options for one schedule of
// TestStaleDeviceRunsGolden.
type staleSchedule struct {
	name string
	arm  func(p *platform.Platform, o *Options)
	// fallback requires a failed CSD call and a line run on the host.
	fallback bool
}

// staleFixture returns staleSrc's trace, the options every schedule
// starts from, the clean run's mean offloaded line (pace) and its longest
// (slowest), and TestStaleDeviceRunsGolden's schedules.
func staleFixture(t *testing.T) (tr *interp.Trace, base Options, pace, slowest float64, schedules []staleSchedule) {
	t.Helper()
	tr = traceFor(t, staleSrc, 1<<16)
	part := codegen.NewPartition(1, 2, 3, 4, 5, 6, 7)
	base = Options{Backend: codegen.Native, Partition: part, OverheadScale: 1e-6}
	clean, err := Run(platform.Default(), tr, base)
	if err != nil {
		t.Fatal(err)
	}
	pace = clean.Duration / float64(len(tr.Records))
	slowest = clean.CSDProgress[0].Time - clean.Start
	for i := 1; i < len(clean.CSDProgress); i++ {
		slowest = math.Max(slowest, clean.CSDProgress[i].Time-clean.CSDProgress[i-1].Time)
	}
	backoff := resilience.Backoff{Base: pace / 8, Factor: 2, Cap: pace, Jitter: 0.25, Seed: 5}
	never := resilience.BreakerPolicy{Threshold: math.MaxInt}
	schedules = []staleSchedule{
		// The CSE runs at a tenth of its rate for the whole run, so a line
		// misses its deadline twice while the device is still computing
		// it, then falls back to the host.
		{"deadline-mid-compute", func(p *platform.Platform, o *Options) {
			p.Dev.SetAvailability(0.1)
			o.Resilience = &resilience.Policy{LineDeadline: 3 * slowest, LineRetries: 1, Backoff: backoff, Breaker: never}
		}, false},
		// Half the calls stall before they start for longer than the line
		// deadline, so the stalled run begins after the host re-posted.
		{"stall-past-deadline", func(p *platform.Platform, o *Options) {
			p.InstallFaults(fault.NewPlan(21,
				fault.Rule{Point: fault.CSEStall, Rate: 0.5, Duration: 4 * slowest},
			), nvme.RetryPolicy{})
			o.Resilience = &resilience.Policy{LineDeadline: 2 * slowest, LineRetries: 1, Backoff: backoff, Breaker: never}
		}, false},
		// A sag stretches lines past the NVMe completion timer, so the
		// queue pair re-issues commands whose first issue is still running.
		{"nvme-reissue", func(p *platform.Platform, o *Options) {
			p.Dev.ScheduleStress(2*pace, 0.2, 6*pace)
			p.InstallFaults(nil, nvme.RetryPolicy{Timeout: 1.5 * slowest, MaxAttempts: 3, Backoff: pace / 10})
			pol := resilience.PerLine()
			o.Resilience = &pol
		}, false},
		// The first deadline miss opens the breaker while the missed run is
		// still on the CSE; later lines run on the host until a probe.
		{"breaker-open-stale", func(p *platform.Platform, o *Options) {
			p.Dev.ScheduleStress(pace, 0.1, 8*pace)
			o.Resilience = &resilience.Policy{LineDeadline: 2 * slowest, Backoff: backoff,
				Breaker: resilience.BreakerPolicy{Threshold: 1, Cooldown: 3 * pace}}
		}, false},
		// The first two flash reads are uncorrectable: the storage line's
		// call fails on the CSD and again on its re-post, so the line falls
		// back to the host, whose read succeeds.
		{"flash-faults", func(p *platform.Platform, o *Options) {
			p.InstallFaults(fault.NewPlan(8,
				fault.Rule{Point: fault.FlashUncorrectable, Rate: 1, MaxCount: 2},
			), nvme.RetryPolicy{})
			pol := resilience.PerLine()
			o.Resilience = &pol
		}, true},
	}
	return tr, base, pace, slowest, schedules
}

// TestStaleRunTrafficIdentity holds a run's traffic counts to the
// machine's over TestStaleDeviceRunsGolden's schedules. A run counts
// what its own line attempts issued; a device run that outlived its
// attempt bills the abandoned counters instead. So the Result's link
// bytes and status messages plus the abandoned ones equal everything the
// link and the device counted once the calendar drains, and its timeouts
// and NVMe re-issues (its retries less its line re-posts) equal the
// queue pair's.
func TestStaleRunTrafficIdentity(t *testing.T) {
	tr, base, pace, _, schedules := staleFixture(t)
	var abandoned float64
	for _, sc := range schedules {
		p := platform.Default()
		opts := base
		sc.arm(p, &opts)
		reg := metrics.New()
		col := obs.NewCollector(pace, 0)
		opts.Metrics, opts.Obs = reg, col
		res, err := Run(p, tr, opts)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		var reposts float64
		for _, name := range col.Windows().Names() {
			if strings.HasSuffix(name, ".retries") {
				for _, w := range col.Windows().Stats(name) {
					reposts += w.Sum
				}
			}
		}
		lostBytes := reg.Counter(metrics.MetricExecAbandonedD2HBytes).Value()
		lostMsgs := reg.Counter(metrics.MetricExecAbandonedStatusMsgs).Value()
		_, status := p.Dev.Stats()
		timeouts, reissues, _, _, _ := p.Dev.QP.FaultStats()
		if got, want := res.D2HBytes+lostBytes, p.Topo.D2H.TotalBytes(); got != want {
			t.Errorf("%s: %v run bytes + %v abandoned = %v, the link carried %v", sc.name, res.D2HBytes, lostBytes, got, want)
		}
		if got := float64(res.StatusMsgs) + lostMsgs; got != float64(status) {
			t.Errorf("%s: %d run status messages + %v abandoned = %v, the device sent %d", sc.name, res.StatusMsgs, lostMsgs, got, status)
		}
		if res.Timeouts != timeouts || float64(res.Retries)-reposts != float64(reissues) {
			t.Errorf("%s: the run counts %d timeouts and %v re-issues, the queue pair %d and %d",
				sc.name, res.Timeouts, float64(res.Retries)-reposts, timeouts, reissues)
		}
		abandoned += lostBytes
	}
	if abandoned == 0 {
		t.Error("no schedule abandoned traffic; the identity is not exercised")
	}
}

// TestStaleDeviceRunsGolden pins exec.Result, the machine's counters and
// the per-line observations of schedules in which a device-side run
// outlives the attempt that posted it: the host gives up at a line
// deadline or an NVMe timeout, or re-issues the command, while the CSE is
// still running the line, and the stale run finishes later against a
// host that has moved on. Every schedule also leaves the run's result
// well defined, so any change to how a stale run is billed, observed or
// discarded shows up here. The flash-faults schedule has no stale runs:
// it pins the host fallback of a storage read that fails on the CSD,
// and asserts that the fallback happened. Regenerate after an
// intentional change with:
//
//	go test ./internal/exec -run TestStaleDeviceRunsGolden -update
func TestStaleDeviceRunsGolden(t *testing.T) {
	tr, base, pace, _, schedules := staleFixture(t)
	var out bytes.Buffer
	for _, sc := range schedules {
		p := platform.Default()
		opts := base
		sc.arm(p, &opts)
		reg := metrics.New()
		col := obs.NewCollector(pace, 0)
		opts.Metrics, opts.Obs = reg, col
		res, err := Run(p, tr, opts)
		if sc.fallback && (err != nil || res.FailedCalls < 1 || res.RecordsOnHost < 1) {
			t.Errorf("%s: no host fallback of a failed CSD call: err %v, result %+v", sc.name, err, res)
		}
		fmt.Fprintf(&out, "== %s\n", sc.name)
		if err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
		} else {
			fmt.Fprintf(&out, "result: %+v\n", *res)
		}
		timeouts, retries, dropped, lost, aborted := p.Dev.QP.FaultStats()
		calls, status := p.Dev.Stats()
		_, stalls := p.Dev.FaultStats()
		fmt.Fprintf(&out, "machine: %s\n", p.Fingerprint())
		fmt.Fprintf(&out, "nvme: timeouts=%d retries=%d dropped=%d lost=%d aborted=%d deadlined=%d\n",
			timeouts, retries, dropped, lost, aborted, p.Dev.QP.Deadlined())
		fmt.Fprintf(&out, "csd: calls=%d status=%d stalls=%d\n", calls, status, stalls)
		col.Windows().Fold(reg)
		snap := reg.Snapshot()
		for _, c := range append(snap.Counters, snap.Gauges...) {
			fmt.Fprintf(&out, "%s %v\n", c.Name, c.Value)
		}
		for _, h := range snap.Histograms {
			fmt.Fprintf(&out, "%s n=%d sum=%v min=%v max=%v\n", h.Name, h.Count, h.Sum, h.Min, h.Max)
		}
	}
	const file = "testdata/stale_runs.golden"
	if *updateGolden {
		if err := os.WriteFile(file, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output drifted from %s (rerun with -update if intentional):\ngot:\n%s", file, out.Bytes())
	}
}
