package driver

import (
	"testing"

	"activego/internal/fault"
	"activego/internal/platform"
)

// TestShedArrivalAllocatesNothing pins admission's refusal path: with
// the in-flight budget full and no wait queue, an arrival is counted and
// refused without allocating. Only a tenant's first refusal builds its
// typed *resilience.AdmitError, which FirstShed keeps.
func TestShedArrivalAllocatesNothing(t *testing.T) {
	e := &engine{p: platform.Default(), cfg: Config{MaxInFlight: 1, MaxQueue: -1}, inflight: 1}
	ts := &tenantState{name: "t"}
	e.arrive(ts, nil, false)
	first := ts.firstShed
	if first == nil || first.Tenant != "t" || first.Request != 0 || first.InFlight != 1 || first.Queued != 0 {
		t.Fatalf("first refusal recorded %+v", first)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.arrive(ts, nil, false) }); allocs != 0 {
		t.Errorf("a shed arrival allocates %.1f objects, want 0", allocs)
	}
	if ts.firstShed != first || ts.shed != ts.offered {
		t.Errorf("after %d arrivals: %d shed, first refusal %+v (was %+v)", ts.offered, ts.shed, ts.firstShed, first)
	}
}

// TestArrivalListSizedOnce pins that an open-loop tenant's arrival list
// is allocated once, at a capacity its draws fit, for each process at
// rates and horizons from one arrival to thousands, over 20 seeds each.
func TestArrivalListSizedOnce(t *testing.T) {
	for _, a := range []Arrival{
		{Process: Uniform, QPS: 10},
		{Process: Uniform, QPS: 3000},
		{Process: Poisson, QPS: 20},
		{Process: Poisson, QPS: 3000},
		{Process: Bursty, QPS: 20, BurstFactor: 4},
		{Process: Bursty, QPS: 3000, BurstFactor: 4, Period: 0.3},
		{Process: Bursty, QPS: 3000, BurstFactor: 6, DutyCycle: 0.2, Period: 2},
		{Process: Bursty, QPS: 3000, BurstFactor: 1}, // plain Poisson
	} {
		for _, horizon := range []float64{0.01, 1.1, 2.5} {
			var seed uint64
			allocs := testing.AllocsPerRun(20, func() {
				seed++
				a.times(fault.NewStream(fault.Mix64(seed)), horizon)
			})
			// One allocation is the stream, one the list.
			if allocs > 2 {
				t.Errorf("%+v over %v s: %.0f allocations per list, want it allocated once", a, horizon, allocs-1)
			}
		}
	}
}
