// Package platform assembles a complete simulated machine — simulator,
// interconnect topology, host, and CSD — matching the experimental
// platform of §IV-A. Every experiment and example starts from
// platform.New.
package platform

import (
	"fmt"

	"activego/internal/csd"
	"activego/internal/fault"
	"activego/internal/host"
	"activego/internal/interconnect"
	"activego/internal/metrics"
	"activego/internal/nvme"
	"activego/internal/sim"
	"activego/internal/trace"
)

// Config aggregates the sub-component configurations.
type Config struct {
	Host  host.Config
	CSD   csd.Config
	Inter interconnect.Config
}

// DefaultConfig mirrors the paper's platform end to end.
func DefaultConfig() Config {
	return Config{
		Host:  host.DefaultConfig(),
		CSD:   csd.DefaultConfig(),
		Inter: interconnect.DefaultConfig(),
	}
}

// Platform is one assembled machine.
type Platform struct {
	Sim  *sim.Sim
	Topo *interconnect.Topology
	Host *host.Host
	Dev  *csd.Device
	Cfg  Config

	faults *fault.Plan // last plan armed via InstallFaults
}

// New builds a platform with cfg.
func New(cfg Config) *Platform {
	s := sim.New()
	topo := interconnect.New(s, cfg.Inter)
	return &Platform{
		Sim:  s,
		Topo: topo,
		Host: host.New(s, topo, cfg.Host),
		Dev:  csd.New(s, topo, cfg.CSD),
		Cfg:  cfg,
	}
}

// Default builds a platform with DefaultConfig.
func Default() *Platform { return New(DefaultConfig()) }

// InstallFaults arms the whole machine's failure machinery in one call:
// the device-owned injection points (NVMe losses, flash errors, CSE
// stalls, scheduled resets) from plan, and the host-side command
// supervision (completion timers, bounded retry with backoff) from
// retry. A nil plan with a zero retry policy leaves the platform exactly
// as built — the fault path costs nothing when disarmed.
func (p *Platform) InstallFaults(plan *fault.Plan, retry nvme.RetryPolicy) {
	p.faults = plan
	plan.SetRecorder(p.Sim.Recorder())
	p.Dev.InstallFaults(plan)
	p.Dev.QP.SetRetryPolicy(retry)
}

// Drained verifies the machine is quiescent: no simulator events on the
// calendar, no NVMe commands device-owned, none waiting in the software
// queue. The chaos harness checks this after every schedule — a non-nil
// error means a run stranded live state behind its result.
func (p *Platform) Drained() error {
	if n := p.Sim.Pending(); n != 0 {
		return fmt.Errorf("platform: %d simulator events still pending", n)
	}
	if n := p.Dev.QP.InFlight(); n != 0 {
		return fmt.Errorf("platform: %d NVMe commands still device-owned", n)
	}
	if n := p.Dev.QP.SoftQueued(); n != 0 {
		return fmt.Errorf("platform: %d NVMe commands still software-queued", n)
	}
	return nil
}

// SetRecorder attaches a structured trace recorder to the whole machine:
// the simulator (through which every resource, link, and model records)
// and any already-armed fault plan. Pass nil to detach. Attaching a
// recorder never changes simulated behavior — see the trace package's
// zero-overhead contract.
func (p *Platform) SetRecorder(r *trace.Recorder) {
	p.Sim.SetRecorder(r)
	if p.faults != nil {
		p.faults.SetRecorder(r)
	}
}

// FoldMetrics gauges the machine's cumulative hardware statistics into
// the registry: simulator events fired, CSE performance counters, flash
// array and FTL activity, and NVMe queue-pair totals. Reading these
// stats never advances the simulation, so folding is observation-only;
// a nil registry is a no-op. Called after a run, from the goroutine that
// drove it.
func (p *Platform) FoldMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge(metrics.MetricSimEvents).Set(float64(p.Sim.EventsFired()))
	retired, rate := p.Dev.PerfCounters()
	reg.Gauge(metrics.MetricCSERetired).Set(retired)
	reg.Gauge(metrics.MetricCSERate).Set(rate)
	reads, programs, erases, _, _ := p.Dev.Array.Stats()
	reg.Gauge(metrics.MetricFlashReads).Set(float64(reads))
	reg.Gauge(metrics.MetricFlashPrograms).Set(float64(programs))
	reg.Gauge(metrics.MetricFlashErases).Set(float64(erases))
	gcRuns, moved, free := p.Dev.FTL.Stats()
	reg.Gauge(metrics.MetricFTLGCRuns).Set(float64(gcRuns))
	reg.Gauge(metrics.MetricFTLPagesMoved).Set(float64(moved))
	reg.Gauge(metrics.MetricFTLFreeBlocks).Set(float64(free))
	sub, comp := p.Dev.QP.Stats()
	reg.Gauge(metrics.MetricNVMeSubmitted).Set(float64(sub))
	reg.Gauge(metrics.MetricNVMeCompleted).Set(float64(comp))
}

// Fingerprint digests the machine's observable cumulative state into a
// fixed-format string: simulator clock and event count, CSE retirement,
// flash array and FTL activity, and NVMe queue-pair totals. Two
// platforms that executed bit-identical histories produce byte-identical
// fingerprints, so tests can assert "this run left the machine exactly
// where that one did" — the zero-traffic and parallel-invariance checks
// of the serving driver compare fingerprints, not field lists.
func (p *Platform) Fingerprint() string {
	retired, rate := p.Dev.PerfCounters()
	reads, programs, erases, rb, wb := p.Dev.Array.Stats()
	gcRuns, moved, free := p.Dev.FTL.Stats()
	sub, comp := p.Dev.QP.Stats()
	return fmt.Sprintf(
		"now=%v events=%d cse=%v@%v flash=%d/%d/%d,%v,%v ftl=%d/%d/%d nvme=%d/%d",
		p.Sim.Now(), p.Sim.EventsFired(), retired, rate,
		reads, programs, erases, rb, wb, gcRuns, moved, free, sub, comp)
}

// MeasureSlowdown runs the calibration microbenchmark of §III-A: the same
// small sample computation is timed on one host core and one CSE core,
// and the ratio is the constant C ActivePy multiplies host times by to
// predict CSD times. On platforms whose CSD exposes performance counters
// the ratio comes from rates directly; this helper is the "run a small
// sample program on both" fallback, executed in simulation.
func (p *Platform) MeasureSlowdown() float64 {
	const sampleWork = 1e6 // work units: small on purpose, like the paper's probe
	var hostTime, devTime float64
	probe := sim.New()
	hostCPU := sim.NewResource(probe, "probe-host", 1, p.Cfg.Host.Rate)
	devCPU := sim.NewResource(probe, "probe-cse", 1, p.Cfg.CSD.CSERate)
	hostCPU.Submit(sampleWork, func(start, end sim.Time) { hostTime = end - start })
	devCPU.Submit(sampleWork, func(start, end sim.Time) { devTime = end - start })
	probe.Run()
	return devTime / hostTime
}
