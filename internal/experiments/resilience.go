package experiments

import (
	"fmt"

	"activego/internal/chaos"
	"activego/internal/codegen"
	"activego/internal/core"
	"activego/internal/exec"
	"activego/internal/fault"
	"activego/internal/nvme"
	"activego/internal/platform"
	"activego/internal/report"
	"activego/internal/resilience"
	"activego/internal/trace"
	"activego/internal/workloads"
)

// The resilience study (ours — no paper counterpart): the paper's §III-D
// machinery assumes the device either stays healthy or degrades once;
// this sweep makes availability *oscillate* — fault bursts arrive, pass,
// and return — and compares three failure-handling postures:
//
//   - static: per-line recovery only (resilience.PerLine). A failed
//     line retries, falls back to the host once, and the very next line
//     returns to the sick device — the run re-pays the fault detection
//     cost every line for as long as a burst lasts.
//   - oneshot: one-shot failover (resilience.OneShot) — the first CSD
//     line whose re-post fails too moves the whole remaining partition
//     to the host, forever. Robust, but the run forfeits the device's
//     healthy periods after the first burst.
//   - breaker: the full resilience ladder — the circuit breaker opens
//     after consecutive faults, the run degrades to the host only while
//     the burst lasts, and a half-open probe re-admits offload when the
//     device recovers.
//
// The sweep ends with a chaos sub-run: a seeded randomized fault
// schedule sweep over the same workload, checking that every schedule
// terminates with a correct result or a typed clean failure.

// ResilienceWorkloads are the three applications with the most
// offloaded dynamic records — the runs long enough, in units of the
// failure-detection time, for several sick/healthy alternations to land
// inside one execution. (The ladder is workload-agnostic; what the
// burst axis needs is line count.)
var ResilienceWorkloads = []string{"blackscholes", "tpch-6", "mixedgemm"}

// ResilienceRates is the within-burst fault intensity axis: 0 is the
// armed-but-idle control (no bursts, no injections — must reproduce the
// clean numbers exactly in every arm), the rest drop NVMe completions
// and stall the CSE hard enough that line failures arrive in runs and
// the breaker's consecutive-failure threshold actually trips.
var ResilienceRates = []float64{0, 0.5, 0.9}

// ResilienceSeed seeds every fault plan and backoff schedule in the
// sweep; one seed makes the whole table bit-reproducible.
const ResilienceSeed uint64 = 11

// ResilienceStressAvail is the CSE availability inside a burst: deep
// enough that an offloaded line under the sag blows far past its line
// deadline — the breaker arm detects the sag as a bounded typed failure
// while the recovery-only arms just sit in it.
const ResilienceStressAvail = 0.05

// ResilienceChaosSchedules sizes the chaos sub-run appended to the
// sweep (the full 1000-schedule bar lives in internal/chaos's own
// tests; the sub-run keeps the experiment honest without dominating it).
const ResilienceChaosSchedules = 48

// ResilienceTraceWorkload is the workload whose worst-burst breaker arm
// is recorded with a full structured trace.
const ResilienceTraceWorkload = "tpch-6"

// ResilienceRow is one (workload, rate) cell: all three arms' durations
// and the breaker arm's ladder counters.
type ResilienceRow struct {
	Workload string
	Rate     float64

	StaticDur  float64
	OneshotDur float64
	BreakerDur float64

	// VsStatic / VsOneshot are the breaker arm's advantage ratios
	// (other arm's duration / breaker duration; >1 means the breaker won).
	VsStatic  float64
	VsOneshot float64

	BreakerOpens   uint64
	BreakerCloses  uint64
	BreakerProbes  uint64
	DegradedLines  uint64
	DeadlineMisses uint64
	Retries        uint64
	Timeouts       uint64

	OneshotFailedOver bool
	Completed         bool // all three arms finished
}

// ResilienceResult is the full sweep plus the chaos sub-run.
type ResilienceResult struct {
	Rows  []ResilienceRow
	Chaos *chaos.Report

	// Rec is the structured trace of ResilienceTraceWorkload's breaker
	// arm at the highest burst intensity — the timeline that shows the
	// open/degrade/probe/re-close cadence.
	Rec *trace.Recorder
}

// RowAt returns the cell for one workload and rate.
func (r *ResilienceResult) RowAt(workload string, rate float64) (ResilienceRow, bool) {
	for _, row := range r.Rows {
		if row.Workload == workload && row.Rate == rate {
			return row, true
		}
	}
	return ResilienceRow{}, false
}

// worstLine is the costliest offloaded line's per-exec device time from
// the plan's own §III-A estimates — the natural time unit for failure
// detection: completion timers, line deadlines, backoff delays, and
// burst geometry all scale with it, so the sweep behaves the same at
// any -scalediv.
func (wb *Workbench) worstLine() float64 {
	worst := 0.0
	for _, est := range wb.Plan.ByLine() {
		if est.Execs <= 0 {
			continue
		}
		if per := est.DevTotal() / est.Execs; per > worst {
			worst = per
		}
	}
	return worst
}

// resilienceRetry derives the NVMe command supervision from the plan's
// own estimates, like the robustness sweep's adaptiveRetry — but tight:
// the completion timer sits at 2.5x the costliest offloaded line, so a
// dropped completion is detected on the same time scale as the work it
// supervises and a healthy line never trips it.
func (wb *Workbench) resilienceRetry() nvme.RetryPolicy {
	worst := wb.worstLine()
	floor := 10e-3 * wb.Params.OverheadScale()
	return nvme.RetryPolicy{Timeout: 2.5*worst + floor, MaxAttempts: 2, Backoff: worst / 4}
}

// resiliencePolicy derives the ladder from the retry policy: the line
// deadline sits just above the completion timer — a healthy line fits
// easily, a line running under a deep availability sag blows past it
// and becomes a bounded typed failure — backoff delays sit under one
// timeout, and the breaker opens on the first failure: with deep sags,
// one deadline miss is already a reliable signal, and a cheap half-open
// probe corrects any false open one cooldown later. The cooldown is
// chosen against the burst length by the caller.
func resiliencePolicy(seed uint64, retry nvme.RetryPolicy, cooldown float64) resilience.Policy {
	return resilience.Policy{
		LineDeadline: 1.2 * retry.Timeout,
		LineRetries:  1,
		Backoff: resilience.Backoff{
			Base: retry.Timeout / 8, Factor: 2, Cap: retry.Timeout / 2,
			Jitter: 0.25, Seed: seed,
		},
		Breaker: resilience.BreakerPolicy{Threshold: 1, Cooldown: cooldown},
	}
}

// resilienceBursts describes the oscillation: burst k covers
// [start+k*period, start+k*period+dur), alternating sick and healthy
// windows. Bursts are sized in retry-timeout units — long enough that a
// full detect-retry-exhaust cycle completes inside one burst (so
// failures cannot escape into the next healthy window) — and there are
// enough of them to keep flapping for the whole stretched run.
type resilienceBursts struct {
	start, dur, period float64
	count              int
}

func burstsFor(cleanDur, timeout float64) resilienceBursts {
	return resilienceBursts{
		start:  cleanDur / 8,
		dur:    4 * timeout,
		period: 8 * timeout,
		count:  12,
	}
}

// install schedules the availability sags and returns the windowed
// fault rules for one intensity; rate 0 means no bursts and an
// armed-but-idle plan.
func (b resilienceBursts) install(p *platform.Platform, rate float64) []fault.Rule {
	if rate <= 0 {
		return []fault.Rule{
			{Point: fault.NVMeCompletionDrop, Rate: 0},
			{Point: fault.CSEStall, Rate: 0, Duration: 1e-3},
		}
	}
	var rules []fault.Rule
	for k := 0; k < b.count; k++ {
		at := b.start + float64(k)*b.period
		p.Dev.ScheduleStress(at, ResilienceStressAvail, b.dur)
		rules = append(rules,
			fault.Rule{Point: fault.NVMeCompletionDrop, Rate: rate, Start: at, End: at + b.dur})
	}
	return rules
}

// runResilienceArm executes one arm of one cell on a fresh platform
// with the bursts scheduled and the plan installed.
func (wb *Workbench) runResilienceArm(seed uint64, bursts resilienceBursts, rate float64,
	retry nvme.RetryPolicy, opts exec.Options, rec *trace.Recorder) (*exec.Result, error) {
	p := platform.Default()
	if rec != nil {
		p.SetRecorder(rec)
	}
	rules := bursts.install(p, rate)
	plan, err := fault.NewPlanChecked(seed, rules...)
	if err != nil {
		return nil, err
	}
	p.InstallFaults(plan, retry)
	opts.Backend = codegen.Native
	opts.Partition = wb.Plan.Partition
	opts.Estimates = wb.Plan.ByLine()
	opts.SamplingOverhead = core.SamplingOverhead
	opts.OverheadScale = wb.Params.OverheadScale()
	opts.UseCallQueue = true
	opts.Metrics = wb.Metrics
	res, rerr := exec.Run(p, wb.Trace, opts)
	p.FoldMetrics(wb.Metrics)
	return res, rerr
}

// ChaosSweep runs a standalone chaos sweep: n randomized seeded fault
// schedules over ResilienceTraceWorkload's trace with the same derived
// ladder the resilience experiment arms. cmd/benchsuite's -chaos flag
// and CI's chaos job call this.
func ChaosSweep(params workloads.Params, seed uint64, n int, opts ...Option) (*chaos.Report, error) {
	o := buildOptions(opts)
	spec, ok := workloads.ByName(ResilienceTraceWorkload)
	if !ok {
		return nil, fmt.Errorf("experiments: chaos: no workload %q", ResilienceTraceWorkload)
	}
	wb, err := Prepare(spec, params, opts...)
	if err != nil {
		return nil, err
	}
	retry := wb.resilienceRetry()
	return chaos.Run(chaos.Config{
		Seed:          seed,
		Schedules:     n,
		Trace:         wb.Trace,
		Partition:     wb.Plan.Partition,
		Backend:       codegen.Native,
		Policy:        resiliencePolicy(seed, retry, 4*retry.Timeout),
		Retry:         retry,
		OverheadScale: wb.Params.OverheadScale(),
		Params:        chaos.ScheduleParams{MaxRate: 1.0},
		Pool:          o.pool,
	})
}

// Resilience sweeps oscillating availability against fault intensity
// and compares the static, one-shot-failover, and circuit-breaker
// postures, then runs the chaos sub-run. The zero-rate column doubles
// as the cost-free-when-idle check: all three arms must produce the
// same clean duration.
func Resilience(params workloads.Params, opts ...Option) (*ResilienceResult, *report.Table, error) {
	o := buildOptions(opts)
	maxRate := ResilienceRates[len(ResilienceRates)-1]
	type perSpec struct {
		rows  []ResilienceRow
		chaos *chaos.Report
		rec   *trace.Recorder
	}
	per, err := overSpecs(o, len(ResilienceWorkloads), func(i int, sopts []Option) (perSpec, error) {
		name := ResilienceWorkloads[i]
		spec, ok := workloads.ByName(name)
		if !ok {
			return perSpec{}, fmt.Errorf("experiments: resilience: no workload %q", name)
		}
		wb, err := Prepare(spec, params, sopts...)
		if err != nil {
			return perSpec{}, err
		}
		retry := wb.resilienceRetry()

		// Armed-but-idle breaker run: the control duration that also
		// calibrates the burst timeline and the breaker cooldown.
		pol := resiliencePolicy(ResilienceSeed, retry, 0)
		clean, err := wb.runResilienceArm(ResilienceSeed, resilienceBursts{}, 0, retry,
			exec.Options{Resilience: &pol}, nil)
		if err != nil {
			return perSpec{}, fmt.Errorf("experiments: resilience: %s control: %w", name, err)
		}
		bursts := burstsFor(clean.Duration, retry.Timeout)
		pol = resiliencePolicy(ResilienceSeed, retry, bursts.dur)
		perLine, oneShot := resilience.PerLine(), resilience.OneShot()

		out := perSpec{}
		for _, rate := range ResilienceRates {
			row := ResilienceRow{Workload: name, Rate: rate}
			static, serr := wb.runResilienceArm(ResilienceSeed, bursts, rate, retry, exec.Options{
				Resilience: &perLine,
			}, nil)
			oneshot, oerr := wb.runResilienceArm(ResilienceSeed, bursts, rate, retry, exec.Options{
				Resilience: &oneShot,
			}, nil)
			var rec *trace.Recorder
			if name == ResilienceTraceWorkload && rate == maxRate {
				rec = trace.New()
				out.rec = rec
			}
			breaker, berr := wb.runResilienceArm(ResilienceSeed, bursts, rate, retry, exec.Options{
				Resilience: &pol,
			}, rec)
			if rate == 0 && (serr != nil || oerr != nil || berr != nil) {
				return perSpec{}, fmt.Errorf("experiments: resilience: %s control arm failed: %v %v %v",
					name, serr, oerr, berr)
			}
			if serr == nil && oerr == nil && berr == nil {
				row.Completed = true
				row.StaticDur = static.Duration
				row.OneshotDur = oneshot.Duration
				row.BreakerDur = breaker.Duration
				row.VsStatic = static.Duration / breaker.Duration
				row.VsOneshot = oneshot.Duration / breaker.Duration
				row.BreakerOpens = breaker.BreakerOpens
				row.BreakerCloses = breaker.BreakerCloses
				row.BreakerProbes = breaker.BreakerProbes
				row.DegradedLines = breaker.DegradedLines
				row.DeadlineMisses = breaker.DeadlineMisses
				row.Retries = breaker.Retries
				row.Timeouts = breaker.Timeouts
				row.OneshotFailedOver = oneshot.BreakerOpens > 0
			}
			out.rows = append(out.rows, row)
		}

		// Chaos sub-run on the traced workload: randomized schedules over
		// the same trace and ladder.
		if name == ResilienceTraceWorkload {
			rep, err := chaos.Run(chaos.Config{
				Seed:          ResilienceSeed,
				Schedules:     ResilienceChaosSchedules,
				Trace:         wb.Trace,
				Partition:     wb.Plan.Partition,
				Backend:       codegen.Native,
				Policy:        pol,
				Retry:         retry,
				OverheadScale: wb.Params.OverheadScale(),
				Params:        chaos.ScheduleParams{MaxRate: 1.0},
				Pool:          buildOptions(sopts).pool,
			})
			if err != nil {
				return perSpec{}, fmt.Errorf("experiments: resilience: %s chaos: %w", name, err)
			}
			out.chaos = rep
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}

	res := &ResilienceResult{}
	tbl := report.NewTable("Resilience: breaker vs static vs one-shot failover under oscillating faults",
		"workload", "rate", "static", "oneshot", "breaker", "vs static", "vs oneshot",
		"opens", "closes", "probes", "degraded", "completed")
	for _, ps := range per {
		if ps.chaos != nil {
			res.Chaos = ps.chaos
		}
		if ps.rec != nil {
			res.Rec = ps.rec
		}
		for _, row := range ps.rows {
			res.Rows = append(res.Rows, row)
			tbl.AddRow(row.Workload, fmt.Sprintf("%.2f", row.Rate),
				fmt.Sprintf("%.4fs", row.StaticDur),
				fmt.Sprintf("%.4fs", row.OneshotDur),
				fmt.Sprintf("%.4fs", row.BreakerDur),
				fmt.Sprintf("%.2fx", row.VsStatic),
				fmt.Sprintf("%.2fx", row.VsOneshot),
				fmt.Sprintf("%d", row.BreakerOpens),
				fmt.Sprintf("%d", row.BreakerCloses),
				fmt.Sprintf("%d", row.BreakerProbes),
				fmt.Sprintf("%d", row.DegradedLines),
				fmt.Sprintf("%v", row.Completed))
		}
	}
	return res, tbl, nil
}
