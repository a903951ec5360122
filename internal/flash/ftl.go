package flash

import (
	"fmt"

	"activego/internal/sim"
)

// FTL is a page-mapping flash translation layer over an Array. It exists
// because the paper names storage-management work — garbage collection in
// particular — as one of the co-tenants that steal CSE and channel time
// from an offloaded task (§II-B3). The FTL's GC consumes real channel time
// on the same array the ISP task reads from, so a write-heavy phase
// degrades reads the way it would on the real device.
//
// Mapping is at page granularity; writes always append to the open block.
// When free blocks fall below gcLowWater, GC picks the block with the
// fewest valid pages, relocates them, and erases it.
type FTL struct {
	sim   *sim.Sim
	array *Array

	pagesPerBlk int
	totalBlocks int64

	// map[logicalPage]physicalPage, physical = block*pagesPerBlk + slot
	l2p map[int64]int64
	// Per-block state exists only for blocks opened so far: blocks open
	// in index order from the fresh cursor, so block b has state iff
	// b < fresh. validCount[block] = live pages in that block; -1 marks
	// an erased block.
	validCount []int
	owner      [][]int64 // owner[block][slot] = logical page or -1
	fresh      int64     // next never-opened block
	erased     []int64   // erased blocks, FIFO, reopened once fresh ones run out
	openBlock  int64
	openSlot   int

	gcLowWater int
	gcRuns     uint64
	gcMoved    uint64
}

// NewFTL builds an FTL spanning the array's full geometry. Per-block
// state is built lazily as blocks open, so construction costs the same
// for a 2 TiB array as for a tiny one.
func NewFTL(s *sim.Sim, a *Array) *FTL {
	g := a.Geometry()
	f := &FTL{
		sim:         s,
		array:       a,
		pagesPerBlk: g.PagesPerBlk,
		totalBlocks: g.Blocks,
		l2p:         make(map[int64]int64),
		gcLowWater:  4,
	}
	f.openNext()
	return f
}

// freeCount is the number of blocks that can still be opened: the
// never-opened ones above the cursor plus the erased ones.
func (f *FTL) freeCount() int {
	return int(f.totalBlocks-f.fresh) + len(f.erased)
}

// openNext opens the next free block: fresh blocks first, in index
// order, then erased blocks in the order they were erased.
func (f *FTL) openNext() {
	switch {
	case f.fresh < f.totalBlocks:
		f.openBlock = f.fresh
		f.fresh++
		f.validCount = append(f.validCount, 0)
		f.owner = append(f.owner, nil)
	case len(f.erased) > 0:
		f.openBlock = f.erased[0]
		f.erased = f.erased[1:]
		f.validCount[f.openBlock] = 0
	default:
		panic("flash: FTL out of free blocks (GC failed to reclaim)")
	}
	f.owner[f.openBlock] = make([]int64, f.pagesPerBlk)
	for i := range f.owner[f.openBlock] {
		f.owner[f.openBlock][i] = -1
	}
	f.openSlot = 0
}

// WritePage maps logical page lp to a fresh physical page, invalidating
// any previous mapping, and returns the physical page id. Timing is the
// caller's concern (the storage layer bills Program time); WritePage only
// maintains the mapping and may trigger GC bookkeeping.
func (f *FTL) WritePage(lp int64) int64 {
	if old, ok := f.l2p[lp]; ok {
		blk := old / int64(f.pagesPerBlk)
		slot := old % int64(f.pagesPerBlk)
		f.owner[blk][slot] = -1
		f.validCount[blk]--
	}
	if f.openSlot == f.pagesPerBlk {
		f.openNext()
	}
	pp := f.openBlock*int64(f.pagesPerBlk) + int64(f.openSlot)
	f.owner[f.openBlock][f.openSlot] = lp
	f.validCount[f.openBlock]++
	f.openSlot++
	f.l2p[lp] = pp
	if f.freeCount() < f.gcLowWater {
		f.collect()
	}
	return pp
}

// collect performs one greedy GC pass: relocate the min-valid block's live
// pages and erase it. Channel time for the copy-back and erase is billed
// on the array, so a GC burst visibly slows concurrent reads.
func (f *FTL) collect() {
	victim := int64(-1)
	best := f.pagesPerBlk + 1
	for b, valid := range f.validCount {
		if int64(b) == f.openBlock || valid < 0 {
			continue
		}
		if valid < best {
			best = valid
			victim = int64(b)
		}
	}
	if victim < 0 {
		return
	}
	f.gcRuns++
	moved := 0
	for slot := 0; slot < f.pagesPerBlk; slot++ {
		lp := f.owner[victim][slot]
		if lp < 0 {
			continue
		}
		// Relocate: read + program one page of channel time.
		pageBytes := f.array.Geometry().PageSize
		f.array.Read(pageBytes, nil)
		f.array.Program(pageBytes, nil)
		f.owner[victim][slot] = -1
		f.validCount[victim]--
		if f.openSlot == f.pagesPerBlk {
			f.openNext()
		}
		pp := f.openBlock*int64(f.pagesPerBlk) + int64(f.openSlot)
		f.owner[f.openBlock][f.openSlot] = lp
		f.validCount[f.openBlock]++
		f.openSlot++
		f.l2p[lp] = pp
		moved++
	}
	f.gcMoved += uint64(moved)
	f.array.Erase(nil)
	f.validCount[victim] = -1
	f.owner[victim] = nil
	f.erased = append(f.erased, victim)
}

// Stats returns GC activity counters.
func (f *FTL) Stats() (gcRuns, pagesMoved uint64, freeBlocks int) {
	return f.gcRuns, f.gcMoved, f.freeCount()
}

// String summarizes the FTL state.
func (f *FTL) String() string {
	return fmt.Sprintf("ftl{mapped=%d free=%d gc=%d}", len(f.l2p), f.freeCount(), f.gcRuns)
}
