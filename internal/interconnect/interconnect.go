// Package interconnect wires the simulated platform's links into the
// topology of Figure 1 of the paper: a host CPU and DRAM, a system
// interconnect (PCIe/NVMe) to the CSD, and the CSD's richer internal
// paths to its device DRAM and NAND array.
//
// The two numbers that matter — and that the paper measures on its real
// platform (§IV-A) — are the external device-to-host bandwidth (5 GB/s)
// and the internal array bandwidth (9 GB/s). Everything ISP wins, it wins
// from that gap plus data reduction.
package interconnect

import "activego/internal/sim"

// Config carries the bandwidth/latency constants of the platform.
type Config struct {
	D2HBandwidth   float64 // bytes/s, host <-> CSD (NVMe over PCIe 3 x4 / IB)
	D2HLatency     float64 // seconds per message
	HostMemBW      float64 // bytes/s, host DRAM bus
	HostMemLatency float64
	DevMemBW       float64 // bytes/s, CSD DRAM bus
	DevMemLatency  float64
}

// DefaultConfig mirrors §IV-A: a 5 GB/s-class external link (4.4 GB/s
// effective after protocol overhead, as NVMe links deliver) and generous
// DRAM buses.
func DefaultConfig() Config {
	return Config{
		D2HBandwidth:   4.4e9,
		D2HLatency:     1.5e-6, // polled NVMe command latency (Yang et al., FAST'12)
		HostMemBW:      34e9,
		HostMemLatency: 90e-9,
		DevMemBW:       12.8e9,
		DevMemLatency:  120e-9,
	}
}

// Topology is the instantiated set of links for one platform.
type Topology struct {
	D2H     *sim.Link // host <-> CSD external interconnect
	HostMem *sim.Link // host CPU <-> host DRAM
	DevMem  *sim.Link // CSE <-> device DRAM
}

// New builds the topology on simulator s.
func New(s *sim.Sim, cfg Config) *Topology {
	return &Topology{
		D2H:     sim.NewLink(s, "d2h", cfg.D2HBandwidth, cfg.D2HLatency),
		HostMem: sim.NewLink(s, "hostmem", cfg.HostMemBW, cfg.HostMemLatency),
		DevMem:  sim.NewLink(s, "devmem", cfg.DevMemBW, cfg.DevMemLatency),
	}
}
