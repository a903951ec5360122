// Package tpch is a seeded dbgen-lite: it synthesizes the lineitem and
// part tables the paper's TPC-H workloads (Q1, Q6, Q14) scan, with the
// value distributions the official dbgen uses for the columns those
// queries touch. Strings are dictionary-encoded into integer codes
// (returnflag A/N/R → 0/1/2, linestatus F/O → 0/1, dates → day numbers),
// which is both how columnar engines store them and what keeps the
// simulated byte volumes honest.
package tpch

import (
	"math/rand"

	"activego/internal/lang/value"
)

// Day-number encoding: days since 1992-01-01 (day 0). The TPC-H data
// window spans 1992-01-01 .. 1998-12-31.
const (
	// DayEpoch1995 is 1995-01-01 in day numbers.
	DayEpoch1995 = 1096
	// DayEpoch1996 is 1996-01-01.
	DayEpoch1996 = 1461
	// DaySept1995 is 1995-09-01, Q14's month of interest.
	DaySept1995 = 1339
	// DayOct1995 is 1995-10-01.
	DayOct1995 = 1369
	// DayQ1Cutoff is 1998-09-02, Q1's shipdate cutoff (includes ~98% of rows).
	DayQ1Cutoff = 2436
	// DayMax is 1998-12-31.
	DayMax = 2556
)

// LineitemRowBytes is the storage footprint of one generated lineitem row
// (8 columns × 8 bytes).
const LineitemRowBytes = 64

// GenLineitem synthesizes a lineitem table with `rows` rows over `parts`
// distinct part keys, deterministically from seed.
func GenLineitem(rows int, parts int, seed int64) *value.Table {
	rng := rand.New(rand.NewSource(seed))
	partkey := make([]int64, rows)
	quantity := make([]float64, rows)
	extprice := make([]float64, rows)
	discount := make([]float64, rows)
	tax := make([]float64, rows)
	returnflag := make([]int64, rows)
	linestatus := make([]int64, rows)
	shipdate := make([]int64, rows)
	for i := 0; i < rows; i++ {
		partkey[i] = rng.Int63n(int64(parts))
		quantity[i] = float64(1 + rng.Intn(50))
		extprice[i] = quantity[i] * (900 + 100*rng.Float64()*float64(1+rng.Intn(10)))
		discount[i] = float64(rng.Intn(11)) / 100 // 0.00 .. 0.10
		tax[i] = float64(rng.Intn(9)) / 100       // 0.00 .. 0.08
		shipdate[i] = int64(rng.Intn(DayMax + 1))
		// Return flag follows shipdate as in dbgen: old rows are R or A,
		// recent rows N; linestatus F for shipped-before-1995, O after.
		if shipdate[i] < DayEpoch1995 {
			if rng.Intn(2) == 0 {
				returnflag[i] = 0 // A
			} else {
				returnflag[i] = 2 // R
			}
			linestatus[i] = 0 // F
		} else {
			returnflag[i] = 1 // N
			linestatus[i] = 1 // O
		}
	}
	return value.NewTable(
		[]string{"l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipdate"},
		[]value.Value{
			value.NewIVec(partkey), value.NewVec(quantity), value.NewVec(extprice),
			value.NewVec(discount), value.NewVec(tax), value.NewIVec(returnflag),
			value.NewIVec(linestatus), value.NewIVec(shipdate),
		})
}

// GenPart synthesizes a part table with `parts` rows; p_promo marks the
// PROMO-type parts Q14 measures (the dbgen type dictionary makes ~20% of
// parts PROMO).
func GenPart(parts int, seed int64) *value.Table {
	rng := rand.New(rand.NewSource(seed))
	partkey := make([]int64, parts)
	promo := make([]int64, parts)
	retail := make([]float64, parts)
	for i := 0; i < parts; i++ {
		partkey[i] = int64(i)
		if rng.Intn(5) == 0 {
			promo[i] = 1
		}
		retail[i] = 900 + 200*rng.Float64()
	}
	return value.NewTable(
		[]string{"p_partkey", "p_promo", "p_retail"},
		[]value.Value{value.NewIVec(partkey), value.NewIVec(promo), value.NewVec(retail)})
}

// Q1Row is one output group of the Q1 reference implementation.
type Q1Row struct {
	ReturnFlag, LineStatus              int64
	SumQty, SumBase, SumDisc, SumCharge float64
	AvgQty, AvgPrice, AvgDisc           float64
	Count                               int64
}

// RefQ1 computes TPC-H Q1 over a lineitem table in plain Go; the workload
// checker compares the mini-language program's output against it.
func RefQ1(t *value.Table, cutoffDay int64) []Q1Row {
	rf := t.IntCol("l_returnflag")
	ls := t.IntCol("l_linestatus")
	qty := t.FloatCol("l_quantity")
	price := t.FloatCol("l_extendedprice")
	disc := t.FloatCol("l_discount")
	tax := t.FloatCol("l_tax")
	ship := t.IntCol("l_shipdate")

	type acc struct {
		q, b, d, c, dd float64
		n              int64
	}
	groups := map[[2]int64]*acc{}
	for i := 0; i < t.NRows; i++ {
		if ship.Data[i] > cutoffDay {
			continue
		}
		key := [2]int64{rf.Data[i], ls.Data[i]}
		g := groups[key]
		if g == nil {
			g = &acc{}
			groups[key] = g
		}
		dp := price.Data[i] * (1 - disc.Data[i])
		g.q += qty.Data[i]
		g.b += price.Data[i]
		g.d += dp
		g.c += dp * (1 + tax.Data[i])
		g.dd += disc.Data[i]
		g.n++
	}
	var keys [][2]int64
	for k := range groups {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j][0] < keys[i][0] || (keys[j][0] == keys[i][0] && keys[j][1] < keys[i][1]) {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	out := make([]Q1Row, len(keys))
	for i, k := range keys {
		g := groups[k]
		out[i] = Q1Row{
			ReturnFlag: k[0], LineStatus: k[1],
			SumQty: g.q, SumBase: g.b, SumDisc: g.d, SumCharge: g.c,
			AvgQty: g.q / float64(g.n), AvgPrice: g.b / float64(g.n), AvgDisc: g.dd / float64(g.n),
			Count: g.n,
		}
	}
	return out
}

// RefQ6 computes TPC-H Q6 revenue in plain Go: shipdate in [lo, hi),
// discount in [dLo, dHi], quantity < qMax.
func RefQ6(t *value.Table, lo, hi int64, dLo, dHi float64, qMax float64) float64 {
	ship := t.IntCol("l_shipdate")
	disc := t.FloatCol("l_discount")
	qty := t.FloatCol("l_quantity")
	price := t.FloatCol("l_extendedprice")
	var rev float64
	for i := 0; i < t.NRows; i++ {
		if ship.Data[i] >= lo && ship.Data[i] < hi &&
			disc.Data[i] >= dLo && disc.Data[i] <= dHi && qty.Data[i] < qMax {
			rev += price.Data[i] * disc.Data[i]
		}
	}
	return rev
}

// RefQ14 computes TPC-H Q14's promo revenue share (percent) in plain Go:
// lineitem ⋈ part over [lo, hi) shipdates.
func RefQ14(lineitem, part *value.Table, lo, hi int64) float64 {
	promoByKey := map[int64]bool{}
	pk := part.IntCol("p_partkey")
	pp := part.IntCol("p_promo")
	for i := 0; i < part.NRows; i++ {
		if pp.Data[i] != 0 {
			promoByKey[pk.Data[i]] = true
		}
	}
	keys := map[int64]bool{}
	for i := 0; i < part.NRows; i++ {
		keys[pk.Data[i]] = true
	}
	ship := lineitem.IntCol("l_shipdate")
	lpk := lineitem.IntCol("l_partkey")
	price := lineitem.FloatCol("l_extendedprice")
	disc := lineitem.FloatCol("l_discount")
	var promoRev, totalRev float64
	for i := 0; i < lineitem.NRows; i++ {
		if ship.Data[i] < lo || ship.Data[i] >= hi {
			continue
		}
		if !keys[lpk.Data[i]] {
			continue
		}
		rev := price.Data[i] * (1 - disc.Data[i])
		totalRev += rev
		if promoByKey[lpk.Data[i]] {
			promoRev += rev
		}
	}
	if totalRev == 0 {
		return 0
	}
	return 100 * promoRev / totalRev
}
