package tpch

import (
	"testing"
	"testing/quick"
)

func TestGenLineitemDeterministic(t *testing.T) {
	a := GenLineitem(1000, 64, 7)
	b := GenLineitem(1000, 64, 7)
	if a.NRows != 1000 {
		t.Fatalf("rows %d", a.NRows)
	}
	av := a.FloatCol("l_extendedprice")
	bv := b.FloatCol("l_extendedprice")
	for i := range av.Data {
		if av.Data[i] != bv.Data[i] {
			t.Fatal("same seed must give identical tables")
		}
	}
	c := GenLineitem(1000, 64, 8)
	if c.FloatCol("l_extendedprice").Data[0] == av.Data[0] {
		t.Error("different seeds should differ")
	}
}

func TestLineitemDomains(t *testing.T) {
	tab := GenLineitem(5000, 128, 1)
	qty := tab.FloatCol("l_quantity")
	disc := tab.FloatCol("l_discount")
	ship := tab.IntCol("l_shipdate")
	rf := tab.IntCol("l_returnflag")
	ls := tab.IntCol("l_linestatus")
	pk := tab.IntCol("l_partkey")
	for i := 0; i < tab.NRows; i++ {
		if qty.Data[i] < 1 || qty.Data[i] > 50 {
			t.Fatalf("quantity %v", qty.Data[i])
		}
		if disc.Data[i] < 0 || disc.Data[i] > 0.10 {
			t.Fatalf("discount %v", disc.Data[i])
		}
		if ship.Data[i] < 0 || ship.Data[i] > DayMax {
			t.Fatalf("shipdate %v", ship.Data[i])
		}
		if rf.Data[i] < 0 || rf.Data[i] > 2 || ls.Data[i] < 0 || ls.Data[i] > 1 {
			t.Fatalf("flags %d/%d", rf.Data[i], ls.Data[i])
		}
		if pk.Data[i] < 0 || pk.Data[i] >= 128 {
			t.Fatalf("partkey %d", pk.Data[i])
		}
		// dbgen correlation: pre-1995 rows are A/R+F, later N+O.
		if ship.Data[i] < DayEpoch1995 {
			if rf.Data[i] == 1 || ls.Data[i] != 0 {
				t.Fatalf("row %d breaks the returnflag/shipdate correlation", i)
			}
		} else if rf.Data[i] != 1 || ls.Data[i] != 1 {
			t.Fatalf("row %d breaks the N/O correlation", i)
		}
	}
}

func TestGenPartPromoShare(t *testing.T) {
	p := GenPart(10000, 3)
	promo := p.IntCol("p_promo")
	count := 0
	for _, v := range promo.Data {
		count += int(v)
	}
	frac := float64(count) / 10000
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("promo fraction %v, want ~0.2", frac)
	}
}

func TestRefQ1GroupsAndCutoff(t *testing.T) {
	tab := GenLineitem(20000, 256, 11)
	rows := RefQ1(tab, DayQ1Cutoff)
	if len(rows) == 0 || len(rows) > 6 {
		t.Fatalf("%d groups", len(rows))
	}
	var total int64
	for i, r := range rows {
		total += r.Count
		if r.AvgQty < 1 || r.AvgQty > 50 {
			t.Errorf("group %d avg qty %v", i, r.AvgQty)
		}
		if i > 0 {
			prev := rows[i-1]
			if r.ReturnFlag < prev.ReturnFlag ||
				(r.ReturnFlag == prev.ReturnFlag && r.LineStatus <= prev.LineStatus) {
				t.Error("groups not ordered by (returnflag, linestatus)")
			}
		}
	}
	if total >= 20000 {
		t.Errorf("cutoff kept all %d rows; Q1 drops post-cutoff shipments", total)
	}
	if float64(total) < 0.9*20000 {
		t.Errorf("cutoff kept only %d rows; Q1's cutoff passes ~95%%", total)
	}
}

func TestRefQ6Selectivity(t *testing.T) {
	tab := GenLineitem(50000, 256, 13)
	rev := RefQ6(tab, DayEpoch1996, DayEpoch1996+365, 0.05, 0.07, 24)
	if rev <= 0 {
		t.Fatal("Q6 revenue must be positive on a year of data")
	}
	// Empty window yields zero.
	if got := RefQ6(tab, 0, 0, 0.05, 0.07, 24); got != 0 {
		t.Errorf("empty window revenue %v", got)
	}
}

func TestRefQ14Bounds(t *testing.T) {
	li := GenLineitem(50000, 512, 17)
	part := GenPart(512, 18)
	share := RefQ14(li, part, DaySept1995, DayOct1995)
	if share <= 0 || share >= 100 {
		t.Errorf("promo share %v, want within (0, 100)", share)
	}
}

// TestQ1MassConservation is a property test: group counts sum to the
// number of rows passing the cutoff, for any seed.
func TestQ1MassConservation(t *testing.T) {
	f := func(seed int64) bool {
		tab := GenLineitem(2000, 64, seed)
		rows := RefQ1(tab, DayQ1Cutoff)
		var total int64
		for _, r := range rows {
			total += r.Count
		}
		ship := tab.IntCol("l_shipdate")
		var want int64
		for _, d := range ship.Data {
			if d <= DayQ1Cutoff {
				want++
			}
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRowByteConstants(t *testing.T) {
	tab := GenLineitem(100, 16, 1)
	if got := tab.SizeBytes() / int64(tab.NRows); got != LineitemRowBytes {
		t.Errorf("lineitem row bytes %d, want %d", got, LineitemRowBytes)
	}
	p := GenPart(100, 1)
	// 3 columns × 8 bytes.
	if got := p.SizeBytes() / int64(p.NRows); got != 24 {
		t.Errorf("part row bytes %d, want 24", got)
	}
}
