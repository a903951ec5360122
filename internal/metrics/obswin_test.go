package metrics

import (
	"bytes"
	"fmt"
	"testing"
)

// TestHistogramBucketEdge pins the snapshot's bucket edge: a value
// exactly on a power of two (2^2 = 4) belongs to the bucket it closes —
// (2, 4] is inclusive above — so its le field is 4, not 8.
func TestHistogramBucketEdge(t *testing.T) {
	r := New()
	r.Histogram("b").Observe(4)
	r.Histogram("b").Observe(4)
	got := r.Snapshot().Histograms[0].Buckets
	if len(got) != 1 || got[0].UpperBound != 4 || got[0].Count != 2 {
		t.Errorf("buckets %+v, want one (2, 4] bucket holding 2", got)
	}
}

// TestQuantileNearestRank pins Quantile's boundary behavior: an empty
// slice, a single repeated value, and the rank arithmetic where q*n
// lands exactly on an integer.
func TestQuantileNearestRank(t *testing.T) {
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := Quantile(nil, q); got != 0 {
			t.Errorf("empty q%v = %v, want 0", q, got)
		}
	}
	three := []float64{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
		if got := Quantile(three, q); got != 3 {
			t.Errorf("constant q%v = %v, want 3", q, got)
		}
	}
	// 2 is rank 1 of two values: q = 0.5 puts the rank exactly at 1 and
	// stays on it; 0.51 crosses into rank 2.
	two := []float64{2, 4}
	if got := Quantile(two, 0.5); got != 2 {
		t.Errorf("two-value q50 = %v, want 2 (rank 1)", got)
	}
	if got := Quantile(two, 0.51); got != 4 {
		t.Errorf("two-value q51 = %v, want 4 (rank 2)", got)
	}
}

// TestMergeWindowedSeriesTenantOrder pins the serving driver's window
// fold-and-merge protocol: per-tenant sub-registries carrying
// tenant-prefixed obs.win.* gauges, merged in tenant order, must
// snapshot byte-identically to the serial recording — the -j1 ≡ -j8
// contract for windowed series.
func TestMergeWindowedSeriesTenantOrder(t *testing.T) {
	fold := func(reg *Registry, tenant, window int, p50 float64) {
		base := fmt.Sprintf("%s%04d.t%d.latency.seconds.", ObsWindowPrefix, window, tenant)
		reg.Gauge(base + "count").Set(3)
		reg.Gauge(base + "sum").Set(p50 * 3)
		reg.Gauge(base + "p50").Set(p50)
		reg.Gauge(base + "p95").Set(p50 * 2)
		reg.Gauge(base + "p99").Set(p50 * 2)
	}

	serial := New()
	for tenant := 0; tenant < 4; tenant++ {
		for w := 0; w < 3; w++ {
			fold(serial, tenant, w, float64(tenant+1)*1e-3)
		}
	}

	// The parallel shape: each tenant folds into a private registry
	// (any completion order), merged back in tenant order.
	subs := make([]*Registry, 4)
	for tenant := 3; tenant >= 0; tenant-- { // record out of order
		subs[tenant] = New()
		for w := 0; w < 3; w++ {
			fold(subs[tenant], tenant, w, float64(tenant+1)*1e-3)
		}
	}
	merged := New()
	for _, sub := range subs {
		merged.Merge(sub)
	}

	var a, b bytes.Buffer
	if err := serial.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("tenant-order merge of windowed series is not byte-identical to serial recording:\n%s\nvs\n%s", a.String(), b.String())
	}

	// Every folded name passes the obs.win scheme check.
	for _, g := range merged.Snapshot().Gauges {
		if !Catalogued(g.Name) {
			t.Errorf("windowed gauge %q not catalogued", g.Name)
		}
	}
	// Malformed variants of the scheme must be rejected.
	for _, bad := range []string{"obs.win.", "obs.win.x.series.p50", "obs.win.12", "obs.win.12."} {
		if Catalogued(bad) {
			t.Errorf("%q should not be Catalogued", bad)
		}
	}
}
