package flash

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"activego/internal/fault"
	"activego/internal/sim"
)

// A transient (ECC-corrected) fault must delay the read by one extra read
// latency and still deliver good data.
func TestTransientFaultDelaysRead(t *testing.T) {
	timeRead := func(plan *fault.Plan) (dur float64, err error) {
		s := sim.New()
		a := NewArray(s, DefaultGeometry())
		a.SetFaults(plan)
		var end sim.Time
		a.ReadChecked(8<<20, func(_, en sim.Time, e error) { end = en; err = e })
		s.Run()
		return end, err
	}
	clean, err := timeRead(nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := timeRead(fault.NewPlan(1, fault.Rule{Point: fault.FlashTransient, Rate: 1, MaxCount: 1}))
	if err != nil {
		t.Fatalf("transient error must be corrected, got %v", err)
	}
	gap := faulty - clean
	lat := DefaultGeometry().ReadLatency
	if gap < lat*0.99 || gap > lat*1.01 {
		t.Errorf("transient penalty %v, want one read latency %v", gap, lat)
	}
}

// An uncorrectable fault must surface ErrUncorrectable through
// ReadChecked, still after consuming the channel time.
func TestUncorrectableFaultFailsRead(t *testing.T) {
	s := sim.New()
	a := NewArray(s, DefaultGeometry())
	a.SetFaults(fault.NewPlan(1, fault.Rule{Point: fault.FlashUncorrectable, Rate: 1, MaxCount: 1}))
	var firstErr, secondErr error
	var end1 sim.Time
	a.ReadChecked(8<<20, func(_, en sim.Time, e error) { end1 = en; firstErr = e })
	s.Run()
	if !errors.Is(firstErr, ErrUncorrectable) {
		t.Fatalf("err = %v, want ErrUncorrectable", firstErr)
	}
	if end1 <= 0 {
		t.Error("UECC read must still consume channel time")
	}
	// MaxCount exhausted: the next read succeeds.
	a.ReadChecked(8<<20, func(_, _ sim.Time, e error) { secondErr = e })
	s.Run()
	if secondErr != nil {
		t.Errorf("second read failed: %v", secondErr)
	}
	corrected, uecc := a.FaultStats()
	if corrected != 0 || uecc != 1 {
		t.Errorf("fault stats corrected=%d uecc=%d, want 0/1", corrected, uecc)
	}
}

// Plain Read (the legacy signature) must not change behavior when no
// faults are armed, and must swallow UECC for callers that cannot see it.
func TestPlainReadIgnoresFaultsButCompletes(t *testing.T) {
	s := sim.New()
	a := NewArray(s, DefaultGeometry())
	a.SetFaults(fault.NewPlan(1, fault.Rule{Point: fault.FlashUncorrectable, Rate: 1}))
	completed := false
	a.Read(1<<20, func(_, _ sim.Time) { completed = true })
	s.Run()
	if !completed {
		t.Error("plain Read must complete even under UECC injection")
	}
}

func TestDefaultGeometryMatchesPaper(t *testing.T) {
	g := DefaultGeometry()
	// §IV-A: 2 TB flash, ~9 GB/s effective internal read bandwidth.
	if got := g.TotalBytes(); got != 2<<40 {
		t.Errorf("capacity %d, want 2 TiB", got)
	}
	bw := g.EffectiveReadBW()
	if bw < 8.5e9 || bw > 9.5e9 {
		t.Errorf("effective read bandwidth %.2f GB/s, want ~9", bw/1e9)
	}
}

func TestArraySustainedReadBandwidth(t *testing.T) {
	s := sim.New()
	a := NewArray(s, DefaultGeometry())
	const bytes = 256 << 20
	var dur float64
	a.Read(bytes, func(st, en sim.Time) { dur = en - st })
	s.Run()
	eff := float64(bytes) / dur
	want := a.Geometry().EffectiveReadBW()
	if eff < want*0.95 || eff > want*1.05 {
		t.Errorf("sustained read %.2f GB/s, want ~%.2f", eff/1e9, want/1e9)
	}
}

func TestArrayReadsQueuePerChannel(t *testing.T) {
	s := sim.New()
	a := NewArray(s, DefaultGeometry())
	var end1, end2 sim.Time
	a.Read(64<<20, func(_, en sim.Time) { end1 = en })
	a.Read(64<<20, func(_, en sim.Time) { end2 = en })
	s.Run()
	if end2 <= end1 {
		t.Errorf("second read (%v) must finish after the first (%v): channels are shared", end2, end1)
	}
	if end2 < end1*1.9 {
		t.Errorf("second read %v should take about twice the first %v (full channel overlap)", end2, end1)
	}
}

func TestArrayAvailabilitySlowsReads(t *testing.T) {
	s := sim.New()
	a := NewArray(s, DefaultGeometry())
	var base float64
	a.Read(64<<20, func(st, en sim.Time) { base = en - st })
	s.Run()

	a.SetAvailability(0.5)
	var slow float64
	a.Read(64<<20, func(st, en sim.Time) { slow = en - st })
	s.Run()
	if slow < base*1.8 || slow > base*2.2 {
		t.Errorf("read at 50%% availability took %vx the baseline, want ~2x", slow/base)
	}
}

func TestReadTimeMatchesMeasured(t *testing.T) {
	s := sim.New()
	a := NewArray(s, DefaultGeometry())
	const bytes = 32 << 20
	est := a.ReadTime(bytes)
	var got float64
	a.Read(bytes, func(st, en sim.Time) { got = en - st })
	s.Run()
	if got < est*0.99 || got > est*1.01 {
		t.Errorf("measured %v vs estimate %v", got, est)
	}
}

func TestProgramSlowerThanRead(t *testing.T) {
	g := DefaultGeometry()
	if prog := g.channelProgRate() * float64(g.Channels); prog >= g.EffectiveReadBW() {
		t.Errorf("program bandwidth %.2f must be below read %.2f (tProg >> tR)",
			prog/1e9, g.EffectiveReadBW()/1e9)
	}
}

func smallGeometry() Geometry {
	g := DefaultGeometry()
	g.Blocks = 32
	g.PagesPerBlk = 8
	return g
}

func TestFTLMapsAndRemaps(t *testing.T) {
	s := sim.New()
	a := NewArray(s, smallGeometry())
	f := NewFTL(s, a)
	p1 := f.WritePage(7)
	p2 := f.WritePage(7) // overwrite remaps
	if p1 == p2 {
		t.Error("overwrite must map to a fresh physical page")
	}
	got, ok := f.l2p[7]
	if !ok || got != p2 {
		t.Errorf("lookup = %d,%v; want %d", got, ok, p2)
	}
	if len(f.l2p) != 1 {
		t.Errorf("mapped pages %d, want 1", len(f.l2p))
	}
}

func TestFTLGarbageCollection(t *testing.T) {
	s := sim.New()
	f := NewFTL(s, NewArray(s, smallGeometry()))
	// Hammer a small logical range so blocks fill with dead pages and GC
	// must reclaim.
	for i := 0; i < 2000; i++ {
		f.WritePage(int64(i % 8))
	}
	s.Run()
	gcRuns, moved, free := f.Stats()
	if gcRuns == 0 {
		t.Fatal("GC never ran despite heavy overwrites")
	}
	if free == 0 {
		t.Error("no free blocks after GC")
	}
	t.Logf("gc runs=%d moved=%d free=%d", gcRuns, moved, free)
	// All 8 logical pages must still resolve.
	for lp := int64(0); lp < 8; lp++ {
		if _, ok := f.l2p[lp]; !ok {
			t.Errorf("logical page %d lost across GC", lp)
		}
	}
}

// TestFTLMappingUnique is a property test: after any write sequence, no
// two live logical pages share a physical page.
func TestFTLMappingUnique(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		ftl := NewFTL(s, NewArray(s, smallGeometry()))
		live := map[int64]bool{}
		for i := 0; i < 300; i++ {
			lp := int64(rng.Intn(16))
			ftl.WritePage(lp)
			live[lp] = true
		}
		s.Run()
		seen := map[int64]int64{}
		for lp := range live {
			pp, ok := ftl.l2p[lp]
			if !ok {
				return false
			}
			if other, dup := seen[pp]; dup && other != lp {
				return false
			}
			seen[pp] = lp
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// eagerFTL is the FTL as it was before per-block state became lazy, kept
// verbatim as the reference for TestLazyFTLMatchesEager: it sizes
// validCount and owner for every block up front and seeds a free list
// with all of them.
type eagerFTL struct {
	sim   *sim.Sim
	array *Array

	pagesPerBlk int
	totalBlocks int64

	// map[logicalPage]physicalPage, physical = block*pagesPerBlk + slot
	l2p map[int64]int64
	// validCount[block] = live pages in that block; -1 marks erased/free
	validCount []int
	owner      [][]int64 // owner[block][slot] = logical page or -1
	freeBlocks []int64
	openBlock  int64
	openSlot   int

	gcLowWater int
	gcRuns     uint64
	gcMoved    uint64
}

// newEagerFTL builds an FTL spanning the array's full geometry.
func newEagerFTL(s *sim.Sim, a *Array) *eagerFTL {
	g := a.Geometry()
	f := &eagerFTL{
		sim:         s,
		array:       a,
		pagesPerBlk: g.PagesPerBlk,
		totalBlocks: g.Blocks,
		l2p:         make(map[int64]int64),
		validCount:  make([]int, g.Blocks),
		owner:       make([][]int64, g.Blocks),
		gcLowWater:  4,
	}
	for b := int64(0); b < g.Blocks; b++ {
		f.validCount[b] = -1
		f.freeBlocks = append(f.freeBlocks, b)
	}
	f.openNext()
	return f
}

func (f *eagerFTL) openNext() {
	if len(f.freeBlocks) == 0 {
		panic("flash: FTL out of free blocks (GC failed to reclaim)")
	}
	f.openBlock = f.freeBlocks[0]
	f.freeBlocks = f.freeBlocks[1:]
	f.validCount[f.openBlock] = 0
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
func (f *eagerFTL) WritePage(lp int64) int64 {
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
	if len(f.freeBlocks) < f.gcLowWater {
		f.collect()
	}
	return pp
}

// Lookup returns the physical page for logical page lp.
func (f *eagerFTL) Lookup(lp int64) (int64, bool) {
	pp, ok := f.l2p[lp]
	return pp, ok
}

// collect performs one greedy GC pass: relocate the min-valid block's live
// pages and erase it. Channel time for the copy-back and erase is billed
// on the array, so a GC burst visibly slows concurrent reads.
func (f *eagerFTL) collect() {
	victim := int64(-1)
	best := f.pagesPerBlk + 1
	for b := int64(0); b < f.totalBlocks; b++ {
		if b == f.openBlock || f.validCount[b] < 0 {
			continue
		}
		if f.validCount[b] < best {
			best = f.validCount[b]
			victim = b
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
	f.freeBlocks = append(f.freeBlocks, victim)
}

// Stats returns GC activity counters.
func (f *eagerFTL) Stats() (gcRuns, pagesMoved uint64, freeBlocks int) {
	return f.gcRuns, f.gcMoved, len(f.freeBlocks)
}

// String summarizes the FTL state.
func (f *eagerFTL) String() string {
	return fmt.Sprintf("ftl{mapped=%d free=%d gc=%d}", len(f.l2p), len(f.freeBlocks), f.gcRuns)
}

// ftlOutcome captures everything an FTL exposes, so the lazy FTL and the
// eager reference can be compared after each step; the summary string
// carries the mapped-page count.
type ftlOutcome struct {
	gcRuns, moved uint64
	free          int
	str           string
}

func outcomeOf(f interface {
	Stats() (uint64, uint64, int)
	String() string
}) ftlOutcome {
	gc, moved, free := f.Stats()
	return ftlOutcome{gc, moved, free, f.String()}
}

// TestLazyFTLMatchesEager is the lazy FTL's equivalence property: on
// small geometries, seeded overwrite sequences long enough to use up
// the fresh blocks and cycle erased ones through GC many times must give
// the same physical page from every write, the same mapping for every
// logical page, and the same counters and channel time as the eager
// reference.
func TestLazyFTLMatchesEager(t *testing.T) {
	for _, shape := range []struct {
		blocks int64
		pages  int
	}{{8, 2}, {8, 4}, {12, 8}, {32, 8}} {
		g := DefaultGeometry()
		g.Blocks, g.PagesPerBlk = shape.blocks, shape.pages
		// Live data stays under a third of capacity so GC always finds
		// a victim with free slots.
		logical := int(shape.blocks) * shape.pages / 3
		for seed := int64(1); seed <= 10; seed++ {
			name := fmt.Sprintf("blocks=%d/pages=%d/seed=%d", shape.blocks, shape.pages, seed)
			rng := rand.New(rand.NewSource(seed))
			ls, es := sim.New(), sim.New()
			la, ea := NewArray(ls, g), NewArray(es, g)
			lazy, eager := NewFTL(ls, la), newEagerFTL(es, ea)
			ops := 40 * int(shape.blocks) * shape.pages
			for i := 0; i < ops; i++ {
				lp := int64(rng.Intn(logical))
				if lpp, epp := lazy.WritePage(lp), eager.WritePage(lp); lpp != epp {
					t.Fatalf("%s op %d: WritePage(%d) = %d, eager reference %d", name, i, lp, lpp, epp)
				}
				if lo, eo := outcomeOf(lazy), outcomeOf(eager); lo != eo {
					t.Fatalf("%s op %d: state %+v, eager reference %+v", name, i, lo, eo)
				}
			}
			for lp := int64(0); lp < int64(logical); lp++ {
				lpp, lok := lazy.l2p[lp]
				epp, eok := eager.Lookup(lp)
				if lpp != epp || lok != eok {
					t.Fatalf("%s: Lookup(%d) = %d,%t, eager reference %d,%t", name, lp, lpp, lok, epp, eok)
				}
			}
			ls.Run()
			es.Run()
			lr, lp, le, lrb, lpb := la.Stats()
			er, ep, ee, erb, epb := ea.Stats()
			if lr != er || lp != ep || le != ee || lrb != erb || lpb != epb || ls.Now() != es.Now() {
				t.Fatalf("%s: array stats %d/%d/%d/%v/%v at t=%v, eager reference %d/%d/%d/%v/%v at t=%v",
					name, lr, lp, le, lrb, lpb, ls.Now(), er, ep, ee, erb, epb, es.Now())
			}
			if gc, _, _ := lazy.Stats(); gc < 3*uint64(shape.blocks) {
				t.Fatalf("%s: only %d GC runs; the sequence must cycle every block through GC several times", name, gc)
			}
		}
	}
}

// TestLazyFTLOutOfBlocksPanics pins the out-of-free-blocks panic: with
// more live logical pages than the array holds, the lazy FTL panics at
// the same write, with the same message, as the eager reference.
func TestLazyFTLOutOfBlocksPanics(t *testing.T) {
	g := smallGeometry()
	writeUntilPanic := func(write func(int64) int64) (at int64, msg any) {
		defer func() { msg = recover() }()
		for at = 0; ; at++ {
			write(at)
		}
	}
	ls, es := sim.New(), sim.New()
	lazyAt, lazyMsg := writeUntilPanic(NewFTL(ls, NewArray(ls, g)).WritePage)
	eagerAt, eagerMsg := writeUntilPanic(newEagerFTL(es, NewArray(es, g)).WritePage)
	if lazyAt != eagerAt || lazyMsg != eagerMsg {
		t.Errorf("lazy FTL panicked at write %d with %v; eager reference at %d with %v", lazyAt, lazyMsg, eagerAt, eagerMsg)
	}
	if lazyMsg == nil {
		t.Error("overfilling the array did not panic")
	}
}
