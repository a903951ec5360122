package csd_test

import (
	"testing"

	"activego/internal/csd"
	"activego/internal/fault"
	"activego/internal/interconnect"
	"activego/internal/nvme"
	"activego/internal/sim"
)

func newDevice() (*sim.Sim, *csd.Device) {
	s := sim.New()
	topo := interconnect.New(s, interconnect.DefaultConfig())
	return s, csd.New(s, topo, csd.DefaultConfig())
}

func TestReadCommandStreamsToHost(t *testing.T) {
	s, d := newDevice()
	d.Store.Preload("obj", 16<<20)
	var done nvme.Completion
	d.QP.Submit(nvme.Command{Opcode: nvme.OpRead, Object: "obj", Bytes: 16 << 20}, func(c nvme.Completion) { done = c })
	s.Run()
	if done.Status != 0 {
		t.Fatalf("status %d", done.Status)
	}
	// Must cost at least the array read plus the link crossing.
	minT := float64(16<<20)/d.Array.Geometry().EffectiveReadBW() + float64(16<<20)/interconnect.DefaultConfig().D2HBandwidth
	wall := done.Completed - done.Submitted
	if wall < minT*0.95 {
		t.Errorf("read completed in %v, physical minimum %v", wall, minT)
	}
}

func TestWriteCommandPrograms(t *testing.T) {
	s, d := newDevice()
	var done nvme.Completion
	d.QP.Submit(nvme.Command{Opcode: nvme.OpWrite, Object: "new", Bytes: 4 << 20}, func(c nvme.Completion) { done = c })
	s.Run()
	if done.Status != 0 {
		t.Fatalf("status %d", done.Status)
	}
	obj, ok := d.Store.Lookup("new")
	if !ok || obj.Size != 4<<20 {
		t.Errorf("object after write: %v %v", obj, ok)
	}
}

func TestCallRunsOnCSE(t *testing.T) {
	s, d := newDevice()
	ran := false
	d.QP.Submit(nvme.Command{
		Opcode: nvme.OpCall,
		Payload: csd.Call(func(dev *csd.Device, done func(uint16, any)) {
			dev.CSE.Submit(1e6, func(_, _ sim.Time) {
				ran = true
				done(0, "ok")
			})
		}),
	}, nil)
	s.Run()
	if !ran {
		t.Error("call payload never ran")
	}
	calls, _ := d.Stats()
	if calls != 1 {
		t.Errorf("calls %d", calls)
	}
}

func TestBadCallPayloadFails(t *testing.T) {
	s, d := newDevice()
	var done nvme.Completion
	d.QP.Submit(nvme.Command{Opcode: nvme.OpCall, Payload: 42}, func(c nvme.Completion) { done = c })
	s.Run()
	if done.Status == 0 {
		t.Error("bad payload must fail")
	}
}

func TestPreempt(t *testing.T) {
	s, d := newDevice()
	d.QP.Submit(nvme.Command{Opcode: nvme.OpPreempt}, nil)
	s.Run()
	if !d.PreemptRequested() {
		t.Error("OpPreempt did not latch the request")
	}
}

// DemandAt must latch the request exactly like a host-posted OpPreempt
// command: both demand paths share one helper.
func TestDemandAtLatchesPreempt(t *testing.T) {
	s, d := newDevice()
	d.DemandAt(1e-3)
	if d.PreemptRequested() {
		t.Error("DemandAt latched the request before its time")
	}
	s.Run()
	if !d.PreemptRequested() {
		t.Error("DemandAt did not latch the request")
	}
}

// An uncorrectable flash read through the queue pair must complete with a
// real media-error status, not silent success.
func TestReadCommandSurfacesMediaError(t *testing.T) {
	s, d := newDevice()
	d.InstallFaults(fault.NewPlan(1, fault.Rule{Point: fault.FlashUncorrectable, Rate: 1, MaxCount: 1}))
	d.Store.Preload("obj", 1<<20)
	var done nvme.Completion
	d.QP.Submit(nvme.Command{Opcode: nvme.OpRead, Object: "obj", Bytes: 1 << 20}, func(c nvme.Completion) { done = c })
	s.Run()
	if done.Status != nvme.StatusMediaError {
		t.Fatalf("status %#x, want StatusMediaError", done.Status)
	}
}

// An injected CSE stall delays a call's start without failing it.
func TestCSEStallDelaysCall(t *testing.T) {
	run := func(plan *fault.Plan) sim.Time {
		s, d := newDevice()
		if plan != nil {
			d.InstallFaults(plan)
		}
		var end sim.Time
		d.QP.Submit(nvme.Command{
			Opcode: nvme.OpCall,
			Payload: csd.Call(func(dev *csd.Device, done func(uint16, any)) {
				dev.CSE.Submit(1e6, func(_, _ sim.Time) { done(0, nil) })
			}),
		}, func(c nvme.Completion) { end = c.Completed })
		s.Run()
		return end
	}
	clean := run(nil)
	const stall = 2e-3
	stalled := run(fault.NewPlan(1, fault.Rule{Point: fault.CSEStall, Rate: 1, MaxCount: 1, Duration: stall}))
	gap := stalled - clean
	if gap < stall*0.99 || gap > stall*1.01 {
		t.Errorf("stall stretched the call by %v, want ~%v", gap, stall)
	}
}

// A scheduled device reset aborts the in-flight call; with a retry policy
// armed the host re-drives it after the device returns, and the command
// still ends in success.
func TestDeviceResetAbortsAndRecovers(t *testing.T) {
	s, d := newDevice()
	d.QP.SetRetryPolicy(nvme.RetryPolicy{Timeout: 0.5, MaxAttempts: 3, Backoff: 1e-3})
	const resetAt, dark = 1e-3, 5e-3
	d.InstallFaults(fault.NewPlan(1, fault.Rule{Point: fault.DeviceReset, At: resetAt, Duration: dark}))
	runs := 0
	var done nvme.Completion
	d.QP.Submit(nvme.Command{
		Opcode: nvme.OpCall,
		Payload: csd.Call(func(dev *csd.Device, complete func(uint16, any)) {
			runs++
			// Long enough to straddle the reset on the first attempt.
			dev.CSE.Submit(2.4e9*2e-3*8, func(_, _ sim.Time) { complete(0, nil) })
		}),
	}, func(c nvme.Completion) { done = c })
	s.Run()
	if done.Status != nvme.StatusOK {
		t.Fatalf("status %#x after reset recovery", done.Status)
	}
	if runs != 2 {
		t.Errorf("call ran %d times, want 2 (original aborted + one re-drive)", runs)
	}
	// The re-driven attempt must not have started inside the dark window.
	if done.Completed < resetAt+dark {
		t.Errorf("completed at %v, inside the reset window ending %v", done.Completed, resetAt+dark)
	}
	resets, _ := d.FaultStats()
	if resets != 1 {
		t.Errorf("resets %d", resets)
	}
	_, _, _, _, aborted := d.QP.FaultStats()
	if aborted != 1 {
		t.Errorf("aborted %d", aborted)
	}
}

func TestAvailabilityAffectsPerfCounters(t *testing.T) {
	_, d := newDevice()
	_, full := d.PerfCounters()
	d.SetAvailability(0.25)
	_, quarter := d.PerfCounters()
	if quarter >= full || quarter < full*0.24 || quarter > full*0.26 {
		t.Errorf("effective rate %v at 25%%, full %v", quarter, full)
	}
}

func TestScheduleStressWindow(t *testing.T) {
	s, d := newDevice()
	d.ScheduleStress(1.0, 0.5, 2.0)
	var mid, after float64
	s.At(1.5, func() { mid = d.CSE.Availability() })
	s.At(3.5, func() { after = d.CSE.Availability() })
	s.Run()
	if mid != 0.5 {
		t.Errorf("availability mid-window %v", mid)
	}
	if after != 1.0 {
		t.Errorf("availability after window %v", after)
	}
}

func TestSendStatusBillsLink(t *testing.T) {
	s, d := newDevice()
	before := d.Topo.D2H.TotalBytes()
	d.SendStatus(nil)
	s.Run()
	if got := d.Topo.D2H.TotalBytes() - before; got != float64(d.Cfg.StatusBytes) {
		t.Errorf("status bytes %v", got)
	}
	_, msgs := d.Stats()
	if msgs != 1 {
		t.Errorf("status count %d", msgs)
	}
}

// TestCallSteadyStateAllocFree pins the pooled call records: once the
// pools are primed, an OpCall through Device.QP — SQE, the call's CSE
// job, the completion back to the host — allocates nothing, with or
// without a CSE stall in front of the call. The Call and done are built
// once, so what is measured is the device's and queue pair's own
// bookkeeping.
func TestCallSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stall float64
	}{{"direct", 0}, {"after a CSE stall", 1e-4}} {
		t.Run(tc.name, func(t *testing.T) {
			s, d := newDevice()
			if tc.stall > 0 {
				d.InstallFaults(fault.NewPlan(1, fault.Rule{Point: fault.CSEStall, Rate: 1, Duration: tc.stall}))
			}
			var finish func(uint16, any)
			computed := func(_, _ sim.Time) { finish(0, nil) }
			call := csd.Call(func(dev *csd.Device, done func(uint16, any)) {
				finish = done
				dev.CSE.Submit(1e5, computed)
			})
			cmd := nvme.Command{Opcode: nvme.OpCall, Payload: call}
			done := func(nvme.Completion) {}
			op := func() { d.QP.Submit(cmd, done); s.Run() }
			op() // prime the pools
			if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
				t.Errorf("steady state allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}
