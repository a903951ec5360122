// Package host models the host computer: a conventional multicore CPU
// that reaches storage only through the system interconnect. Mirrors the
// paper's platform (§IV-A): an octa-core desktop CPU whose cores are
// individually faster than the CSD's, but which must pull every raw byte
// across the 5 GB/s link before it can compute on it.
package host

import (
	"activego/internal/csd"
	"activego/internal/interconnect"
	"activego/internal/nvme"
	"activego/internal/sim"
	"activego/internal/trace"
)

// Config sets the host's compute constants.
type Config struct {
	Cores int
	Rate  float64 // work units/second/core
}

// DefaultConfig mirrors the Ryzen 7 3700X-class host of §IV-A.
func DefaultConfig() Config {
	return Config{Cores: 8, Rate: 3.6e9}
}

// Host is the live host model.
type Host struct {
	Sim  *sim.Sim
	Cfg  Config
	CPU  *sim.Resource
	Topo *interconnect.Topology
}

// New builds a host on simulator s attached via topo.
func New(s *sim.Sim, topo *interconnect.Topology, cfg Config) *Host {
	return &Host{
		Sim:  s,
		Cfg:  cfg,
		CPU:  sim.NewResource(s, "hostcpu", cfg.Cores, cfg.Rate),
		Topo: topo,
	}
}

// traced wraps a completion callback with a host-lane span covering the
// whole command lifetime (submit to completion landing). With no recorder
// attached it returns done unchanged — the zero-overhead path.
func (h *Host) traced(name string, done func(nvme.Completion)) func(nvme.Completion) {
	rec := h.Sim.Recorder()
	if rec == nil {
		return done
	}
	submit := h.Sim.Now()
	return func(c nvme.Completion) {
		rec.Span("host", "host", name, submit, h.Sim.Now(),
			trace.Arg{Key: "status", Value: c.Status})
		if done != nil {
			done(c)
		}
	}
}

// ReadObject pulls [offset, offset+bytes) of a device-resident object into
// host DRAM: an NVMe read command through the device's queue pair. done
// receives the completion.
func (h *Host) ReadObject(dev *csd.Device, object string, offset, bytes int64, done func(nvme.Completion)) {
	dev.QP.Submit(nvme.Command{Opcode: nvme.OpRead, Object: object, Offset: offset, Bytes: bytes}, h.traced("read-object", done))
}

// WriteObject pushes bytes into a device-resident object.
func (h *Host) WriteObject(dev *csd.Device, object string, offset, bytes int64, done func(nvme.Completion)) {
	dev.QP.Submit(nvme.Command{Opcode: nvme.OpWrite, Object: object, Offset: offset, Bytes: bytes}, h.traced("write-object", done))
}

// Call invokes a CSD function with argument arg through the call queue
// (§III-C-b).
func (h *Host) Call(dev *csd.Device, fn csd.Call, arg int64, done func(nvme.Completion)) {
	h.CallDeadline(dev, fn, arg, 0, done)
}

// CallDeadline is Call with an absolute completion deadline enforced by
// the queue pair's host-side supervision (see nvme.SubmitDeadline); a
// zero deadline is plain Call. The executor threads per-line deadlines
// from its resilience policy through here to the NVMe completion timers.
func (h *Host) CallDeadline(dev *csd.Device, fn csd.Call, arg int64, deadline sim.Time, done func(nvme.Completion)) {
	dev.QP.SubmitDeadline(nvme.Command{Opcode: nvme.OpCall, Payload: fn, Arg: arg}, deadline, h.traced("call", done))
}

// Preempt asks the device to stop offloaded work at the next line
// boundary (§III-D).
func (h *Host) Preempt(dev *csd.Device, done func(nvme.Completion)) {
	dev.QP.Submit(nvme.Command{Opcode: nvme.OpPreempt}, h.traced("preempt", done))
}
