package sim

import (
	"fmt"

	"activego/internal/trace"
)

// Link models a bandwidth-limited, fixed-latency interconnect segment: the
// host's PCIe/NVMe link to the CSD (5 GB/s in the paper's platform) or the
// CSD's internal bus to its NAND array (9 GB/s). Transfers serialize FIFO
// on the wire; each transfer additionally pays the propagation latency
// once. This is the BW_D2H term of the paper's Equation 1 made concrete.
type Link struct {
	sim       *Sim
	name      string
	bandwidth float64 // bytes per second
	latency   float64 // seconds per message

	wireFree Time // when the wire is next idle

	ctrInflight   string // counter series name, precomputed
	bytesInflight float64

	totalBytes     float64
	totalTransfers uint64
	busyIntegral   float64

	free []*transfer // recycled transfer records; see transfer
}

// transfer is one message in flight. Records are pooled on their Link
// the way jobs are on a Resource: a landed transfer returns to the pool
// before its done callback runs, and fire, its landing callback, is bound
// once when the record is first allocated.
type transfer struct {
	link       *Link
	bytes      float64
	start, end Time
	tracked    bool
	done       func(start, end Time)
	fire       func()
}

func (x *transfer) land() {
	l := x.link
	if x.tracked {
		l.bytesInflight -= x.bytes
		if rec := l.sim.rec; rec != nil {
			rec.Sample(l.ctrInflight, x.end, l.bytesInflight)
			rec.Span(l.name, "link", "xfer", x.start, x.end, trace.Arg{Key: "bytes", Value: x.bytes})
		}
	}
	done, start, end := x.done, x.start, x.end
	x.done = nil
	l.free = append(l.free, x)
	if done != nil {
		done(start, end)
	}
}

// NewLink creates a link with the given bandwidth (bytes/second) and
// per-message latency (seconds).
func NewLink(s *Sim, name string, bandwidth, latency float64) *Link {
	if bandwidth <= 0 || latency < 0 {
		panic(fmt.Sprintf("sim: link %q needs positive bandwidth, non-negative latency", name))
	}
	return &Link{sim: s, name: name, bandwidth: bandwidth, latency: latency,
		ctrInflight: name + ".bytes_inflight"}
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Bandwidth returns the link bandwidth in bytes per second.
func (l *Link) Bandwidth() float64 { return l.bandwidth }

// Latency returns the per-message latency in seconds.
func (l *Link) Latency() float64 { return l.latency }

// Transfer schedules `bytes` to move across the link; done fires when the
// last byte (plus propagation latency) lands. Zero-byte transfers still
// pay latency: a doorbell write or a completion entry is a real message.
func (l *Link) Transfer(bytes float64, done func(start, end Time)) {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: link %q negative transfer %v", l.name, bytes))
	}
	now := l.sim.Now()
	start := now
	if l.wireFree > start {
		start = l.wireFree
	}
	xmit := bytes / l.bandwidth
	end := start + xmit + l.latency
	l.wireFree = start + xmit
	l.totalBytes += bytes
	l.totalTransfers++
	l.busyIntegral += xmit
	tracked := l.sim.rec != nil
	if tracked {
		l.bytesInflight += bytes
		l.sim.rec.Sample(l.ctrInflight, now, l.bytesInflight)
	}
	var x *transfer
	if n := len(l.free); n > 0 {
		x = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		x = &transfer{link: l}
		x.fire = x.land
	}
	x.bytes, x.start, x.end, x.tracked, x.done = bytes, start, end, tracked, done
	l.sim.At(end, x.fire)
}

// TransferTime returns the unloaded duration of moving `bytes`, without
// queueing. Planners use this for Equation 1 estimates.
func (l *Link) TransferTime(bytes float64) float64 {
	return bytes/l.bandwidth + l.latency
}

// TotalBytes returns the cumulative bytes moved over the link.
func (l *Link) TotalBytes() float64 { return l.totalBytes }

// TotalTransfers returns the number of Transfer calls.
func (l *Link) TotalTransfers() uint64 { return l.totalTransfers }

// Utilization returns the fraction of time the wire has been busy from
// simulation start to now.
func (l *Link) Utilization() float64 {
	if l.sim.Now() == 0 {
		return 0
	}
	u := l.busyIntegral / l.sim.Now()
	if u > 1 {
		u = 1
	}
	return u
}
