package host_test

import (
	"testing"

	"activego/internal/csd"
	"activego/internal/host"
	"activego/internal/interconnect"
	"activego/internal/nvme"
	"activego/internal/sim"
)

func rig() (*sim.Sim, *host.Host, *csd.Device) {
	s := sim.New()
	topo := interconnect.New(s, interconnect.DefaultConfig())
	return s, host.New(s, topo, host.DefaultConfig()), csd.New(s, topo, csd.DefaultConfig())
}

func TestHostFasterPerCoreThanCSE(t *testing.T) {
	hc := host.DefaultConfig()
	dc := csd.DefaultConfig()
	if hc.Rate <= dc.CSERate {
		t.Errorf("host core %v must outrun CSE core %v (§II-B1)", hc.Rate, dc.CSERate)
	}
}

func TestReadWriteCallRoundTrips(t *testing.T) {
	s, h, d := rig()
	d.Store.Preload("x", 1<<20)
	var reads, writes, calls int
	h.ReadObject(d, "x", 0, 1<<20, func(c nvme.Completion) {
		if c.Status == 0 {
			reads++
		}
	})
	h.WriteObject(d, "y", 0, 1<<16, func(c nvme.Completion) {
		if c.Status == 0 {
			writes++
		}
	})
	var work int64
	h.Call(d, func(dev *csd.Device, arg int64, done func(uint16, any)) {
		work = arg
		dev.CSE.Submit(float64(arg), func(_, _ sim.Time) { done(0, nil) })
	}, 1000, func(c nvme.Completion) {
		if c.Status == 0 {
			calls++
		}
	})
	s.Run()
	if reads != 1 || writes != 1 || calls != 1 {
		t.Errorf("r/w/c = %d/%d/%d", reads, writes, calls)
	}
	if work != 1000 {
		t.Errorf("call received argument %d, want 1000", work)
	}
}

func TestPreemptReachesDevice(t *testing.T) {
	s, h, d := rig()
	h.Preempt(d, nil)
	s.Run()
	if !d.PreemptRequested() {
		t.Error("preempt lost")
	}
}
