// Package flash models the NAND flash array inside the simulated CSD.
//
// The paper's CSD (§IV-A) stores data on 2 TB of flash reached over an
// internal interconnect with a measured effective peak of 9 GB/s — nearly
// twice the 5 GB/s external NVMe link. That 9:5 ratio is the physical
// reason in-storage processing pays off, so the array model's job is to
// reproduce sustained internal bandwidth and its queueing behaviour, not
// cell-level electrical detail.
//
// The model: an array of independent channels, each with several dies.
// Reads and programs are striped across channels in stripe units; a die
// pays the NAND access latency (tR / tProg) per page, pipelined across the
// dies sharing a channel, and the page then crosses the channel bus at the
// channel's bandwidth. Each channel keeps a wire-free horizon so that
// concurrent operations queue realistically, but a multi-megabyte extent
// costs one completion event, keeping gigabyte-scale workloads cheap to
// simulate.
package flash

import (
	"errors"
	"fmt"
	"math"

	"activego/internal/fault"
	"activego/internal/metrics"
	"activego/internal/sim"
	"activego/internal/trace"
)

// ErrUncorrectable is the error a read completes with when it hits an
// injected uncorrectable (UECC) error: the channel time was spent, but
// the data is garbage.
var ErrUncorrectable = errors.New("flash: uncorrectable read error (UECC)")

// Geometry describes the physical organization of the array.
type Geometry struct {
	Channels    int     // independent channel buses
	DiesPerChan int     // dies pipelined on one channel
	PageSize    int64   // bytes per NAND page
	PagesPerBlk int     // pages per erase block
	Blocks      int64   // erase blocks across the whole array
	ReadLatency float64 // tR: seconds to sense one page
	ProgLatency float64 // tProg: seconds to program one page
	EraseLat    float64 // tBERS: seconds to erase one block
	ChanBW      float64 // bytes/second across one channel bus
}

// DefaultGeometry mirrors the paper's CSD: the constants below give a
// sustained internal read bandwidth of about 9 GB/s across the array and
// a raw capacity of 2 TB.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:    8,
		DiesPerChan: 4,
		PageSize:    16 * 1024,
		PagesPerBlk: 256,
		Blocks:      512 * 1024, // 512Ki blocks * 256 pages * 16 KiB = 2 TiB
		ReadLatency: 45e-6,
		ProgLatency: 300e-6,
		EraseLat:    2e-3,
		ChanBW:      1.15e9, // 8 bus-limited channels -> ~9.2 GB/s array reads
	}
}

// TotalBytes returns the raw capacity of the geometry.
func (g Geometry) TotalBytes() int64 {
	return g.Blocks * int64(g.PagesPerBlk) * g.PageSize
}

// channelReadRate returns one channel's sustainable read throughput in
// bytes/second: page sensing is pipelined across the channel's dies, so
// the per-page cost is the larger of (tR split across dies) and the bus
// transfer time.
func (g Geometry) channelReadRate() float64 {
	sense := g.ReadLatency / float64(g.DiesPerChan)
	bus := float64(g.PageSize) / g.ChanBW
	return float64(g.PageSize) / math.Max(sense, bus)
}

func (g Geometry) channelProgRate() float64 {
	prog := g.ProgLatency / float64(g.DiesPerChan)
	bus := float64(g.PageSize) / g.ChanBW
	return float64(g.PageSize) / math.Max(prog, bus)
}

// EffectiveReadBW returns the array's sustained read bandwidth: the
// quantity the paper measured at 9 GB/s.
func (g Geometry) EffectiveReadBW() float64 {
	return g.channelReadRate() * float64(g.Channels)
}

// Array is a live flash array bound to a simulator.
type Array struct {
	sim  *sim.Sim
	geom Geometry

	chanFree     []sim.Time // per-channel wire-free horizon
	next         int        // round-robin start channel for striping
	availability float64    // fraction of channel time left by co-tenants
	faults       *fault.Plan

	readBytes float64
	progBytes float64
	reads     uint64
	programs  uint64
	erases    uint64
	corrected uint64 // ECC-corrected (transient) read errors
	uecc      uint64 // uncorrectable read errors
}

// NewArray builds an array over geometry g.
func NewArray(s *sim.Sim, g Geometry) *Array {
	if g.Channels <= 0 || g.DiesPerChan <= 0 || g.PageSize <= 0 || g.ChanBW <= 0 {
		panic(fmt.Sprintf("flash: invalid geometry %+v", g))
	}
	return &Array{sim: s, geom: g, chanFree: make([]sim.Time, g.Channels), availability: 1}
}

// SetAvailability sets the fraction of channel time available to this
// simulation's operations; a co-tenant workload streaming from the same
// array (the paper's Figure 5 stressor runs "similar workloads", which
// are storage-bound) leaves less. Applies to operations issued from now
// on; in-flight extents finish at their old rate.
func (a *Array) SetAvailability(frac float64) {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("flash: availability %v out of (0,1]", frac))
	}
	a.availability = frac
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geom }

// SetFaults arms the array with plan's flash injection points (transient
// ECC-correctable and uncorrectable read errors). A nil plan disarms it.
func (a *Array) SetFaults(plan *fault.Plan) { a.faults = plan }

// Read schedules a read of `bytes` striped across all channels and calls
// done when the last channel finishes. A zero-length read completes after
// one page sense (the command still touches a die). Read ignores
// injected uncorrectable errors — callers that must observe them use
// ReadChecked.
func (a *Array) Read(bytes int64, done func(start, end sim.Time)) {
	a.ReadChecked(bytes, func(start, end sim.Time, _ error) {
		if done != nil {
			done(start, end)
		}
	})
}

// ReadChecked is Read with failure semantics. A transient
// (ECC-correctable) injected error delays completion by one extra read
// latency — the controller's re-sense with tuned thresholds — and still
// returns good data; an uncorrectable (UECC) error completes with
// ErrUncorrectable after the channel time is spent. Fault decisions are
// made at issue, deterministically per the armed fault.Plan.
func (a *Array) ReadChecked(bytes int64, done func(start, end sim.Time, err error)) {
	a.reads++
	a.readBytes += float64(bytes)
	var err error
	var penalty float64
	if a.faults.Decide(fault.FlashUncorrectable, a.sim.Now()) {
		a.uecc++
		err = ErrUncorrectable
		a.sim.Recorder().Instant("flash", "fault", "flash-uecc", a.sim.Now())
	} else if a.faults.Decide(fault.FlashTransient, a.sim.Now()) {
		a.corrected++
		penalty = a.geom.ReadLatency
		a.sim.Recorder().Instant("flash", "fault", "flash-corrected", a.sim.Now())
	}
	a.op("read", bytes, a.geom.channelReadRate(), a.geom.ReadLatency, func(start, end sim.Time) {
		if done == nil {
			return
		}
		if penalty > 0 {
			a.sim.After(penalty, func() { done(start, end+penalty, nil) })
			return
		}
		done(start, end, err)
	})
}

// Program schedules a write of `bytes` striped across all channels.
func (a *Array) Program(bytes int64, done func(start, end sim.Time)) {
	a.programs++
	a.progBytes += float64(bytes)
	a.op("program", bytes, a.geom.channelProgRate(), a.geom.ProgLatency, done)
}

// Erase schedules a block erase; it occupies one channel for tBERS.
func (a *Array) Erase(done func(start, end sim.Time)) {
	a.erases++
	now := a.sim.Now()
	c := a.next
	a.next = (a.next + 1) % a.geom.Channels
	start := now
	if a.chanFree[c] > start {
		start = a.chanFree[c]
	}
	end := start + a.geom.EraseLat
	a.chanFree[c] = end
	a.sampleBusy(now)
	a.sim.At(end, func() {
		if rec := a.sim.Recorder(); rec != nil {
			rec.Span("flash", "flash", "erase", start, end)
			a.sampleBusy(end)
		}
		if done != nil {
			done(start, end)
		}
	})
}

// sampleBusy records how many channels have work booked past time t.
func (a *Array) sampleBusy(t sim.Time) {
	rec := a.sim.Recorder()
	if rec == nil {
		return
	}
	busy := 0
	for _, free := range a.chanFree {
		if free > t {
			busy++
		}
	}
	rec.Sample(metrics.SeriesFlashBusyChannels, t, float64(busy))
}

func (a *Array) op(name string, bytes int64, rate float64, firstLat float64, done func(start, end sim.Time)) {
	if bytes < 0 {
		panic(fmt.Sprintf("flash: negative op size %d", bytes))
	}
	now := a.sim.Now()
	n := a.geom.Channels
	per := float64(bytes) / float64(n)
	effRate := rate * a.availability
	// Setup latency: the first page sense, pipelined across the channel's
	// dies; subsequent pages stream at the channel rate.
	setup := firstLat / float64(a.geom.DiesPerChan)
	opStart := sim.Time(math.Inf(1))
	opEnd := sim.Time(0)
	for i := 0; i < n; i++ {
		c := (a.next + i) % n
		start := now
		if a.chanFree[c] > start {
			start = a.chanFree[c]
		}
		end := start + setup + per/effRate
		a.chanFree[c] = end
		if start < opStart {
			opStart = start
		}
		if end > opEnd {
			opEnd = end
		}
	}
	a.next = (a.next + 1) % n
	a.sampleBusy(now)
	a.sim.At(opEnd, func() {
		if rec := a.sim.Recorder(); rec != nil {
			rec.Span("flash", "flash", name, opStart, opEnd, trace.Arg{Key: "bytes", Value: bytes})
			a.sampleBusy(opEnd)
		}
		if done != nil {
			done(opStart, opEnd)
		}
	})
}

// ReadTime returns the unloaded duration of reading `bytes`: the model
// the flash and storage tests hold simulated reads to.
func (a *Array) ReadTime(bytes int64) float64 {
	per := float64(bytes) / float64(a.geom.Channels)
	return a.geom.ReadLatency/float64(a.geom.DiesPerChan) + per/a.geom.channelReadRate()
}

// Stats returns cumulative operation counts and byte totals.
func (a *Array) Stats() (reads, programs, erases uint64, readBytes, progBytes float64) {
	return a.reads, a.programs, a.erases, a.readBytes, a.progBytes
}

// FaultStats returns cumulative injected read-error counts: transient
// errors the ECC corrected and uncorrectable (UECC) failures.
func (a *Array) FaultStats() (corrected, uncorrectable uint64) {
	return a.corrected, a.uecc
}
