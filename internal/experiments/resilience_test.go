package experiments

import (
	"testing"
)

// The resilience sweep's reproduction target: under oscillating
// availability with in-burst faults, the circuit-breaker ladder must
// beat both the static per-line posture and the one-shot failover —
// and the zero-rate control must show all three arms bit-identical
// (the ladder is free when idle).
func TestResilienceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	res, tbl, err := Resilience(testParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if want := len(ResilienceWorkloads) * len(ResilienceRates); len(res.Rows) != want {
		t.Fatalf("%d rows, want %d", len(res.Rows), want)
	}
	for _, name := range ResilienceWorkloads {
		ctrl, ok := res.RowAt(name, 0)
		if !ok || !ctrl.Completed {
			t.Fatalf("%s: no completed control row", name)
		}
		if ctrl.StaticDur != ctrl.OneshotDur || ctrl.StaticDur != ctrl.BreakerDur {
			t.Errorf("%s: control arms differ: static %.9f oneshot %.9f breaker %.9f",
				name, ctrl.StaticDur, ctrl.OneshotDur, ctrl.BreakerDur)
		}
		if ctrl.BreakerOpens != 0 || ctrl.DegradedLines != 0 || ctrl.Timeouts != 0 || ctrl.DeadlineMisses != 0 {
			t.Errorf("%s: control counted ladder activity: %+v", name, ctrl)
		}
		if ctrl.OneshotFailedOver {
			t.Errorf("%s: one-shot arm failed over in the control", name)
		}
		for _, rate := range ResilienceRates[1:] {
			row, ok := res.RowAt(name, rate)
			if !ok {
				t.Fatalf("%s: no row at rate %v", name, rate)
			}
			if !row.Completed {
				t.Errorf("%s@%.2f: an arm did not complete", name, rate)
				continue
			}
			if rate == ResilienceRates[len(ResilienceRates)-1] && !row.OneshotFailedOver {
				t.Errorf("%s@%.2f: one-shot arm never failed over", name, rate)
			}
			// Without a failover, the static and one-shot presets run the
			// same ladder and must take the same time.
			if !row.OneshotFailedOver && row.OneshotDur != row.StaticDur {
				t.Errorf("%s@%.2f: one-shot arm never failed over yet took %.9fs vs static %.9fs",
					name, rate, row.OneshotDur, row.StaticDur)
			}
			if row.BreakerOpens == 0 || row.BreakerCloses == 0 {
				t.Errorf("%s@%.2f: breaker never cycled (opens %d closes %d)",
					name, rate, row.BreakerOpens, row.BreakerCloses)
			}
			if row.DegradedLines == 0 {
				t.Errorf("%s@%.2f: no lines ran degraded while open", name, rate)
			}
			// The headline: the breaker must beat both rigid postures.
			// Measured advantages sit at 1.24x-1.95x; 1.05 leaves slack.
			if row.VsStatic < 1.05 {
				t.Errorf("%s@%.2f: breaker vs static %.2fx, want > 1.05x", name, rate, row.VsStatic)
			}
			if row.VsOneshot < 1.05 {
				t.Errorf("%s@%.2f: breaker vs oneshot %.2fx, want > 1.05x", name, rate, row.VsOneshot)
			}
		}
	}
	if res.Chaos == nil {
		t.Fatal("no chaos sub-run report")
	}
	if !res.Chaos.Ok() {
		t.Errorf("chaos sub-run violated an invariant: %s", res.Chaos.Summary())
	}
	if res.Chaos.Completed == 0 {
		t.Error("chaos sub-run: nothing completed")
	}
	if res.Rec == nil {
		t.Error("no trace recorded for the breaker arm")
	}

	// Determinism of the whole sweep: a second pass must be identical.
	again, _, err := Resilience(testParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i] != again.Rows[i] {
			t.Errorf("sweep not reproducible: %+v vs %+v", res.Rows[i], again.Rows[i])
		}
	}
}
