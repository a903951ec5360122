package experiments

import (
	"testing"

	"activego/internal/workloads"
)

// The resilience sweep's reproduction target: under oscillating
// availability with in-burst faults, the circuit-breaker ladder must
// beat both the static per-line posture and the one-shot failover;
// under steady faults every arm must complete, the breaker must open,
// and the one-shot arm must fail over at the top rate — and the
// zero-rate control must show all three arms bit-identical to the bare
// run (the fault machinery and the ladder are free when idle).
func TestResilienceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	res, tbl, err := Resilience(testParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if want := len(ResilienceWorkloads) * (len(ResilienceRates) + len(ResilienceSteadyRates)); len(res.Rows) != want {
		t.Fatalf("%d rows, want %d", len(res.Rows), want)
	}
	for _, name := range ResilienceWorkloads {
		ctrl, ok := resilienceRowAt(res, name, false, 0)
		if !ok || !ctrl.Completed {
			t.Fatalf("%s: no completed control row", name)
		}
		if ctrl.StaticDur != ctrl.OneshotDur || ctrl.StaticDur != ctrl.BreakerDur {
			t.Errorf("%s: control arms differ: static %.9f oneshot %.9f breaker %.9f",
				name, ctrl.StaticDur, ctrl.OneshotDur, ctrl.BreakerDur)
		}
		if ctrl.BreakerOpens != 0 || ctrl.DegradedLines != 0 || ctrl.Timeouts != 0 || ctrl.DeadlineMisses != 0 || ctrl.Retries != 0 {
			t.Errorf("%s: control counted ladder activity: %+v", name, ctrl)
		}
		if ctrl.OneshotFailedOver {
			t.Errorf("%s: one-shot arm failed over in the control", name)
		}
		// Armed-but-idle must reproduce the bare ActivePy run exactly.
		spec, _ := workloads.ByName(name)
		wb, err := Prepare(spec, testParams())
		if err != nil {
			t.Fatal(err)
		}
		bare, err := wb.RunActivePy(false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ctrl.BreakerDur != bare.Duration {
			t.Errorf("%s: control %.9fs != bare run %.9fs", name, ctrl.BreakerDur, bare.Duration)
		}

		for _, rate := range ResilienceRates[1:] {
			row, ok := resilienceRowAt(res, name, false, rate)
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
			checkOneshotMatchesStatic(t, row)
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

		// Steady faults: recovery keeps every arm completing and the
		// breaker always trips. The breaker need not win here — one-shot
		// failover is the better posture against a device that never
		// recovers — so no advantage is asserted.
		for _, rate := range ResilienceSteadyRates {
			row, ok := resilienceRowAt(res, name, true, rate)
			if !ok {
				t.Fatalf("%s: no row at steady rate %v", name, rate)
			}
			if !row.Completed {
				t.Errorf("%s@steady%.2f: an arm did not complete", name, rate)
				continue
			}
			if row.BreakerOpens == 0 {
				t.Errorf("%s@steady%.2f: breaker never opened", name, rate)
			}
			if rate == ResilienceSteadyRates[len(ResilienceSteadyRates)-1] && !row.OneshotFailedOver {
				t.Errorf("%s@steady%.2f: one-shot arm never failed over", name, rate)
			}
			checkOneshotMatchesStatic(t, row)
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

	// Determinism of the whole sweep: a second pass must be identical,
	// with the chaos sub-run resized by WithChaosSweep, which replaces
	// its count and seed and touches no row.
	again, _, err := Resilience(testParams(), WithChaosSweep(5, 7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i] != again.Rows[i] {
			t.Errorf("sweep not reproducible: %+v vs %+v", res.Rows[i], again.Rows[i])
		}
	}
	if again.Chaos == nil || again.Chaos.Schedules != 5 {
		t.Errorf("WithChaosSweep(5, 7): chaos sub-run %+v, want 5 schedules", again.Chaos)
	}
}

// checkOneshotMatchesStatic: without a failover, the static and
// one-shot presets run the same ladder and must take the same time.
func checkOneshotMatchesStatic(t *testing.T, row ResilienceRow) {
	t.Helper()
	if !row.OneshotFailedOver && row.OneshotDur != row.StaticDur {
		t.Errorf("%s %s@%.2f: one-shot arm never failed over yet took %.9fs vs static %.9fs",
			row.Workload, row.faults(), row.Rate, row.OneshotDur, row.StaticDur)
	}
}

// resilienceRowAt returns the cell for one workload, fault model and
// rate.
func resilienceRowAt(r *ResilienceResult, workload string, steady bool, rate float64) (ResilienceRow, bool) {
	for _, row := range r.Rows {
		if row.Workload == workload && row.Steady == steady && row.Rate == rate {
			return row, true
		}
	}
	return ResilienceRow{}, false
}

// TestResilienceSupervisionSizedToRun: the study's NVMe supervision is
// sized from the plan, so at any -scalediv a completion timeout and a
// line deadline each cost well under the clean run they supervise —
// below half of it — and a fault costs time on the scale of the work,
// not a multiple of the whole run.
func TestResilienceSupervisionSizedToRun(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	for _, scaleDiv := range []int64{512, 2048} {
		params := workloads.Params{ScaleDiv: scaleDiv, Seed: 42}
		_, err := overPrograms(params, options{}, resiliencePrograms, func(wb *Workbench) (struct{}, error) {
			clean, err := wb.RunActivePy(false, nil)
			if err != nil {
				return struct{}{}, err
			}
			retry := wb.resilienceRetry()
			deadline := resiliencePolicy(ResilienceSeed, retry).LineDeadline
			t.Logf("%s /%d: timer %.3fx, deadline %.3fx of the clean run %.6fs",
				wb.Spec.Name, scaleDiv, retry.Timeout/clean.Duration, deadline/clean.Duration, clean.Duration)
			if retry.Timeout >= clean.Duration/2 {
				t.Errorf("%s /%d: completion timer %.6fs, not below half the clean run %.6fs",
					wb.Spec.Name, scaleDiv, retry.Timeout, clean.Duration)
			}
			if deadline >= clean.Duration/2 {
				t.Errorf("%s /%d: line deadline %.6fs, not below half the clean run %.6fs",
					wb.Spec.Name, scaleDiv, deadline, clean.Duration)
			}
			return struct{}{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
