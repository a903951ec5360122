package storage

import (
	"testing"

	"activego/internal/flash"
	"activego/internal/sim"
)

func newStore() (*sim.Sim, *Store) {
	s := sim.New()
	g := flash.DefaultGeometry()
	g.Blocks = 4096
	a := flash.NewArray(s, g)
	return s, NewStore(s, a, flash.NewFTL(s, a))
}

func TestPreloadAndLookup(t *testing.T) {
	_, st := newStore()
	obj := st.Preload("data", 1<<20)
	if obj.Size != 1<<20 {
		t.Errorf("size %d", obj.Size)
	}
	if got, ok := st.Lookup("data"); !ok || got != obj {
		t.Error("lookup failed")
	}
	if len(st.objects) != 1 {
		t.Errorf("objects %v", st.objects)
	}
}

func TestReadBillsFlashTime(t *testing.T) {
	s, st := newStore()
	st.Preload("data", 8<<20)
	var dur float64
	st.ReadChecked("data", 0, 8<<20, func(start, end sim.Time, _ error) { dur = end - start })
	s.Run()
	est := st.array.ReadTime(8 << 20)
	if dur < est*0.99 || dur > est*1.01 {
		t.Errorf("read took %v, estimate %v", dur, est)
	}
}

func TestReadBoundsChecked(t *testing.T) {
	_, st := newStore()
	st.Preload("data", 1000)
	for _, fn := range []func(){
		func() { st.ReadChecked("missing", 0, 10, nil) },
		func() { st.ReadChecked("data", 0, 2000, nil) },
		func() { st.ReadChecked("data", -1, 10, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestWriteExtendsObject(t *testing.T) {
	s, st := newStore()
	st.Preload("data", 1000)
	st.Write("data", 500, 2000, nil)
	s.Run()
	obj, _ := st.Lookup("data")
	if obj.Size != 2500 {
		t.Errorf("size after extend %d, want 2500", obj.Size)
	}
}

func TestWriteCreatesObject(t *testing.T) {
	s, st := newStore()
	st.Write("fresh", 0, 4096, nil)
	s.Run()
	obj, ok := st.Lookup("fresh")
	if !ok || obj.Size != 4096 {
		t.Errorf("fresh object: %v %v", obj, ok)
	}
}
