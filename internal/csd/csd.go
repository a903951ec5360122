// Package csd assembles the simulated computational storage device.
//
// The device mirrors §IV-A of the paper: an SoC with 8 wimpy cores (ARM
// Cortex-A72 class) next to a 2 TB NAND array it can read at ~9 GB/s,
// exposed to the host over a 5 GB/s NVMe link. The computational storage
// engine (CSE) is deliberately *slower* than the host CPU — the paper is
// explicit (§II-B1) that ISP gains come from data-volume reduction, not
// from compute speed — and the device carries the availability machinery
// that Figures 2 and 5 sweep.
package csd

import (
	"fmt"

	"activego/internal/fault"
	"activego/internal/flash"
	"activego/internal/interconnect"
	"activego/internal/metrics"
	"activego/internal/nvme"
	"activego/internal/sim"
	"activego/internal/storage"
	"activego/internal/trace"
)

// Config sets the device's compute, queue and flash constants.
type Config struct {
	CSECores    int     // processor cores in the CSE
	CSERate     float64 // work units/second/core; < host rate by design
	QueueDepth  int     // NVMe queue depth
	Flash       flash.Geometry
	StatusBytes int64 // size of one status-update message (§III-C-b)
}

// DefaultConfig mirrors the paper's CSD. CSERate is chosen so that the
// calibration microbenchmark measures the CSE ≈1.6x slower per core than
// the default host core — the band a server-class ARM Cortex-A72 SoC
// lands in against a desktop Ryzen on memory-streaming kernels, and the
// regime in which the paper's data-reduction-driven gains (not compute
// speed) decide offload profitability.
func DefaultConfig() Config {
	return Config{
		CSECores:    8,
		CSERate:     2.4e9,
		QueueDepth:  64,
		Flash:       flash.DefaultGeometry(),
		StatusBytes: 64,
	}
}

// Call is a device-side function invocation carried in an OpCall command.
// The function runs "on" the device with the command's Arg: it is
// responsible for scheduling its own CSE work and array reads, then
// calling done exactly once. The argument travels by value in the
// command, so one Call value serves every invocation of a function.
type Call func(dev *Device, arg int64, done func(status uint16, value any))

// Device is the live CSD.
type Device struct {
	Sim   *sim.Sim
	Cfg   Config
	Array *flash.Array
	FTL   *flash.FTL
	Store *storage.Store
	CSE   *sim.Resource
	Topo  *interconnect.Topology
	QP    *nvme.QueuePair

	preemptRequested bool
	calls            uint64
	statusMsgs       uint64
	freeCalls        []*opCall // finished call records; see opCall

	faults     *fault.Plan
	resetUntil sim.Time
	resets     uint64
	stalls     uint64
}

// New builds a device on simulator s attached via topo.
func New(s *sim.Sim, topo *interconnect.Topology, cfg Config) *Device {
	array := flash.NewArray(s, cfg.Flash)
	ftl := flash.NewFTL(s, array)
	store := storage.NewStore(s, array, ftl)
	d := &Device{
		Sim:   s,
		Cfg:   cfg,
		Array: array,
		FTL:   ftl,
		Store: store,
		CSE:   sim.NewResource(s, "cse", cfg.CSECores, cfg.CSERate),
		Topo:  topo,
	}
	d.QP = nvme.NewQueuePair(s, topo.D2H, cfg.QueueDepth, d.handle)
	return d
}

// handle is the device-side command processor. A command arriving while
// the controller is resetting is held and dispatched when the reset
// window closes — the firmware's boot-time fetch of the pending queue.
func (d *Device) handle(cmd nvme.Command, submitted sim.Time, complete func(nvme.Completion)) {
	if d.Sim.Now() < d.resetUntil {
		d.Sim.At(d.resetUntil, func() { d.dispatch(cmd, submitted, complete) })
		return
	}
	d.dispatch(cmd, submitted, complete)
}

func (d *Device) dispatch(cmd nvme.Command, submitted sim.Time, complete func(nvme.Completion)) {
	switch cmd.Opcode {
	case nvme.OpRead:
		// Array read, then stream the data to the host over the link. An
		// uncorrectable flash error completes with a real media status —
		// the host never sees the garbage data.
		d.Store.ReadChecked(cmd.Object, cmd.Offset, cmd.Bytes, func(start, _ sim.Time, err error) {
			if err != nil {
				complete(nvme.Completion{Status: nvme.StatusMediaError, Value: err.Error(), Started: start})
				return
			}
			d.Topo.D2H.Transfer(float64(cmd.Bytes), func(_, end sim.Time) {
				complete(nvme.Completion{Started: start})
			})
		})
	case nvme.OpWrite:
		// Data streams from the host, then programs into the array.
		d.Topo.D2H.Transfer(float64(cmd.Bytes), func(start, _ sim.Time) {
			d.Store.Write(cmd.Object, cmd.Offset, cmd.Bytes, func(_, _ sim.Time) {
				complete(nvme.Completion{Started: start})
			})
		})
	case nvme.OpCall:
		call, ok := cmd.Payload.(Call)
		if !ok {
			complete(nvme.Completion{Status: nvme.StatusInvalidField, Value: fmt.Sprintf("csd: bad call payload %T", cmd.Payload)})
			return
		}
		d.calls++
		oc := d.acquireCall(call, cmd.Arg, complete)
		// Injected CSE stall: firmware hogs the engine before the call
		// starts (the command stays in flight, so a host completion timer
		// can fire against it).
		if dur, ok := d.faults.DecideDuration(fault.CSEStall, d.Sim.Now()); ok && dur > 0 {
			d.stalls++
			if rec := d.Sim.Recorder(); rec != nil {
				rec.Instant("csd", "fault", "cse-stall", d.Sim.Now(), trace.Arg{Key: "duration", Value: dur})
			}
			d.Sim.After(dur, oc.run)
			return
		}
		oc.begin()
	case nvme.OpPreempt:
		d.preempt()
		complete(nvme.Completion{})
	default:
		complete(nvme.Completion{Status: nvme.StatusInvalidOpcode, Value: fmt.Sprintf("csd: unknown opcode %v", cmd.Opcode)})
	}
}

// opCall is one OpCall command running on the device. Records are pooled
// on their Device: a finished call returns to the pool before its
// completion is delivered, so complete receives values, never the record.
// run and finish, the record's start and end continuations, are bound
// once when the record is first allocated.
type opCall struct {
	d        *Device
	call     Call
	arg      int64
	complete func(nvme.Completion)
	start    sim.Time
	run      func()
	finish   func(status uint16, value any)
}

func (d *Device) acquireCall(call Call, arg int64, complete func(nvme.Completion)) *opCall {
	var oc *opCall
	if n := len(d.freeCalls); n > 0 {
		oc = d.freeCalls[n-1]
		d.freeCalls[n-1] = nil
		d.freeCalls = d.freeCalls[:n-1]
	} else {
		oc = &opCall{d: d}
		oc.run = oc.begin
		oc.finish = oc.end
	}
	oc.call, oc.arg, oc.complete = call, arg, complete
	return oc
}

func (oc *opCall) begin() {
	oc.start = oc.d.Sim.Now()
	oc.call(oc.d, oc.arg, oc.finish)
}

func (oc *opCall) end(status uint16, value any) {
	d := oc.d
	if oc.complete == nil {
		panic("csd: call completed twice")
	}
	if rec := d.Sim.Recorder(); rec != nil {
		rec.Span("csd", "csd", "call", oc.start, d.Sim.Now(),
			trace.Arg{Key: "status", Value: status})
	}
	complete, start := oc.complete, oc.start
	oc.call, oc.complete = nil, nil
	d.freeCalls = append(d.freeCalls, oc)
	complete(nvme.Completion{Status: status, Value: value, Started: start})
}

// preempt is the single §III-D case-1 demand path: it latches the request
// that compiled CSD code polls at its next line boundary. Both the
// OpPreempt command handler and DemandAt route through it, so the code
// learns of the demand regardless of how it arrived.
func (d *Device) preempt() {
	d.Sim.Recorder().Instant("csd", "exec", "preempt-demand", d.Sim.Now())
	d.preemptRequested = true
}

// PreemptRequested reports whether a high-priority tenant has demanded
// the device (§III-D case 1); the offloaded task's status-update code
// checks this at every line boundary. ClearPreempt acknowledges it.
func (d *Device) PreemptRequested() bool { return d.preemptRequested }

// ClearPreempt acknowledges a preempt demand.
func (d *Device) ClearPreempt() { d.preemptRequested = false }

// DemandAt schedules a high-priority tenant's demand for the device at
// time t: the §III-D case-1 trigger, delivered through the command pages.
func (d *Device) DemandAt(t sim.Time) {
	d.Sim.At(t, func() { d.preempt() })
}

// Reset models a full controller reset at the current instant: every
// device-owned command is aborted (the host's retry machinery, if armed,
// re-drives them) and the device goes dark for duration seconds —
// commands arriving meanwhile are held until the reset window closes.
func (d *Device) Reset(duration float64) {
	if duration < 0 {
		panic(fmt.Sprintf("csd: negative reset duration %v", duration))
	}
	d.resets++
	if rec := d.Sim.Recorder(); rec != nil {
		rec.Instant("csd", "fault", "device-reset", d.Sim.Now(), trace.Arg{Key: "duration", Value: duration})
	}
	if until := d.Sim.Now() + duration; until > d.resetUntil {
		d.resetUntil = until
	}
	d.QP.AbortAll(nvme.StatusAborted)
}

// InstallFaults arms every injection point the device owns: the NVMe
// queue pair (lost commands, dropped completions), the flash array
// (transient and uncorrectable read errors), CSE stalls, and scheduled
// device resets. A nil plan disarms the stochastic points.
func (d *Device) InstallFaults(plan *fault.Plan) {
	d.faults = plan
	d.QP.SetFaults(plan)
	d.Array.SetFaults(plan)
	for _, r := range plan.Resets() {
		r := r
		d.Sim.At(r.At, func() { d.Reset(r.Duration) })
	}
}

// FaultStats returns device-level failure counters: controller resets
// performed and injected CSE stalls.
func (d *Device) FaultStats() (resets, stalls uint64) { return d.resets, d.stalls }

// ResetUntil reports when the latest controller reset window closes —
// zero if the device never went dark. Chaos tooling prints it to show
// how much of a schedule's wall time the device spent resetting.
func (d *Device) ResetUntil() sim.Time { return d.resetUntil }

// SetAvailability changes the fraction of CSE time this simulation's jobs
// receive; Figure 2's x-axis is exactly this knob (compute contention
// only — the paper emulates "changes of computing resources").
func (d *Device) SetAvailability(frac float64) { d.CSE.SetAvailability(frac) }

// ScheduleStress models a co-tenant arriving at time t and stressing the
// CSD *processor* (the paper's Figure 5 methodology): CSE availability
// drops to frac. If duration > 0 the tenant departs after it. Flash
// channel contention is a separate knob (Array.SetAvailability) used by
// the storage-tenant ablation.
func (d *Device) ScheduleStress(t sim.Time, frac float64, duration float64) {
	d.Sim.At(t, func() { d.CSE.SetAvailability(frac) })
	if duration > 0 {
		d.Sim.At(t+duration, func() { d.CSE.SetAvailability(1) })
	}
}

// SendStatus bills one status-update message from the CSE to the host
// (§III-C-b). The content travels in the completion stream.
func (d *Device) SendStatus(done func(start, end sim.Time)) {
	d.statusMsgs++
	d.Sim.Recorder().Sample(metrics.SeriesCSDStatusMsgs, d.Sim.Now(), float64(d.statusMsgs))
	d.Topo.D2H.Transfer(float64(d.Cfg.StatusBytes), done)
}

// PerfCounters exposes the CSD's hardware counters: retired work units and
// the instantaneous effective rate. ActivePy reads these to compute the
// slowdown constant C (§III-A) and the measured IPC (§III-D).
func (d *Device) PerfCounters() (retiredWork float64, effectiveRate float64) {
	return d.CSE.CompletedWork(), d.CSE.Rate() * d.CSE.Availability()
}

// Stats returns device-level activity counters.
func (d *Device) Stats() (calls, statusMsgs uint64) { return d.calls, d.statusMsgs }
