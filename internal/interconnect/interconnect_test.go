package interconnect

import (
	"testing"

	"activego/internal/sim"
)

func TestTopologyConstants(t *testing.T) {
	cfg := DefaultConfig()
	// §IV-A: the external link is a 5 GB/s-class NVMe path; memory buses
	// are an order of magnitude faster.
	if cfg.D2HBandwidth < 3.5e9 || cfg.D2HBandwidth > 5.5e9 {
		t.Errorf("D2H bandwidth %.2f GB/s outside the paper's class", cfg.D2HBandwidth/1e9)
	}
	if cfg.HostMemBW <= cfg.D2HBandwidth*3 {
		t.Errorf("host DRAM bus must dwarf the external link")
	}
	s := sim.New()
	topo := New(s, cfg)
	if topo.D2H == nil || topo.HostMem == nil || topo.DevMem == nil {
		t.Fatal("incomplete topology")
	}
	var end sim.Time
	topo.D2H.Transfer(1e9, func(_, e sim.Time) { end = e })
	s.Run()
	if want := 1e9/cfg.D2HBandwidth + cfg.D2HLatency; end != want {
		t.Errorf("1 GB crossed the D2H link in %v s, want %v: link bandwidth not wired", end, want)
	}
}

func TestLinksAreIndependent(t *testing.T) {
	s := sim.New()
	topo := New(s, DefaultConfig())
	topo.D2H.Transfer(1e9, nil)
	s.Run()
	if topo.HostMem.TotalBytes() != 0 {
		t.Error("transfer leaked across links")
	}
}
