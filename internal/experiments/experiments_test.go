package experiments

import (
	"testing"

	"activego/internal/workloads"
)

// testParams runs the harnesses at a reduced scale to keep the suite
// quick; shape assertions hold from ~2 MB instances upward.
func testParams() workloads.Params {
	return workloads.Params{ScaleDiv: 2048, Seed: 42}
}

func TestTable1(t *testing.T) {
	rows, tbl, err := Table1(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("Table I must list 9 applications, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Regions < 4 {
			t.Errorf("%s: only %d SESE regions; programs must give the planner choices", r.Name, r.Regions)
		}
		if r.ScaledBytes <= 0 || r.PaperBytes <= 0 {
			t.Errorf("%s: bad sizes %d/%d", r.Name, r.ScaledBytes, r.PaperBytes)
		}
	}
	if tbl.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	res, tbl, err := Fig2(testParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	for _, w := range Fig2Workloads {
		full := res.SpeedupAt(w, 1.0)
		if full < 1.10 {
			t.Errorf("%s: static ISP at 100%% CSE should clearly win, got %.3fx", w, full)
		}
		low := res.SpeedupAt(w, 0.1)
		if low > 1.0 {
			t.Errorf("%s: static ISP at 10%% CSE should lose to the baseline, got %.3fx", w, low)
		}
		cross := res.Crossover(w)
		if cross < 0.1 || cross > 0.7 {
			t.Errorf("%s: crossover at %.0f%% availability, expected within [10%%, 70%%]", w, cross*100)
		}
		// Monotone-ish: speedup at 100% must exceed speedup at 10%.
		if full <= low {
			t.Errorf("%s: speedup should degrade with availability (%.3f vs %.3f)", w, full, low)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	res, tbl, err := Fig4(testParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if len(res.Rows) != 9 {
		t.Fatalf("Figure 4 covers 9 applications, got %d", len(res.Rows))
	}
	if res.MeanStatic < 1.1 {
		t.Errorf("mean static ISP speedup %.3fx; paper band is ~1.33x", res.MeanStatic)
	}
	if res.MeanActivePy < 1.1 {
		t.Errorf("mean ActivePy speedup %.3fx; paper band is ~1.34x", res.MeanActivePy)
	}
	gap := (res.MeanStatic - res.MeanActivePy) / res.MeanStatic
	if gap > 0.06 {
		t.Errorf("ActivePy trails hand-tuned ISP by %.1f%%; paper reports ~1%%", gap*100)
	}
	if res.Matches < len(res.Rows)/2 {
		t.Errorf("only %d/%d plans match the exhaustive optimum", res.Matches, len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.ActivePySpeedup < 0.93 {
			t.Errorf("%s: ActivePy must not lose badly to the baseline, got %.3fx", r.Workload, r.ActivePySpeedup)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	res, tbl, err := Fig5(testParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if adv := res.MigrationAdvantage(0.1); adv < 1.2 {
		t.Errorf("migration advantage at 10%% availability is %.2fx; paper reports 2.82x", adv)
	}
	if slow := res.MeanSlowdownWithMigration(0.1); slow > 0.35 {
		t.Errorf("with migration, mean slowdown vs baseline is %.0f%%; paper reports ~8%%", slow*100)
	}
	mean, max := res.LossWithoutMigration(0.1)
	if mean < 0.2 {
		t.Errorf("without migration at 10%%, mean loss %.0f%%; paper reports 67%%", mean*100)
	}
	if max < mean {
		t.Errorf("max loss %.0f%% below mean %.0f%%", max*100, mean*100)
	}
	// At 50% availability migration should help or at least not hurt much.
	if adv := res.MigrationAdvantage(0.5); adv < 0.95 {
		t.Errorf("migration advantage at 50%% availability is %.2fx", adv)
	}
}

func TestRobustnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	res, tbl, err := Robustness(testParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if len(res.Rows) != len(RobustnessWorkloads)*len(RobustnessRates) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(RobustnessWorkloads)*len(RobustnessRates))
	}
	for _, row := range res.Rows {
		if row.Rate == 0 && !row.Completed {
			t.Fatal("a zero-fault control run did not complete")
		}
	}
	for _, name := range RobustnessWorkloads {
		spec, _ := workloads.ByName(name)
		wb, err := Prepare(spec, testParams())
		if err != nil {
			t.Fatal(err)
		}
		// Armed-but-idle must reproduce the bare ActivePy run exactly —
		// the fault machinery is free when nothing fires.
		bare, err := wb.RunActivePy(false, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, _ := robustnessRowAt(res, name, 0)
		if ctrl.Duration != bare.Duration {
			t.Errorf("%s: zero-fault control %.9fs != bare run %.9fs", name, ctrl.Duration, bare.Duration)
		}
		if ctrl.Retries != 0 || ctrl.Timeouts != 0 || ctrl.FailedCalls != 0 {
			t.Errorf("%s: control counted failures: %+v", name, ctrl)
		}
		// Injected faults must cost time and show up in the counters, and
		// recovery must keep every run completing.
		for _, rate := range RobustnessRates[1:] {
			row, ok := robustnessRowAt(res, name, rate)
			if !ok {
				t.Fatalf("%s: no row at rate %v", name, rate)
			}
			if !row.Completed {
				t.Errorf("%s@%.2f: recovery did not complete the run", name, rate)
				continue
			}
			if row.Retries == 0 && row.Timeouts == 0 {
				t.Errorf("%s@%.2f: no retries or timeouts at a positive rate", name, rate)
			}
			if row.Overhead < 0 {
				t.Errorf("%s@%.2f: faulted run faster than clean (%+.1f%%)", name, rate, row.Overhead*100)
			}
		}
	}
	// Determinism of the whole sweep: a second pass must be identical.
	again, _, err := Robustness(testParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i] != again.Rows[i] {
			t.Errorf("sweep not reproducible: %+v vs %+v", res.Rows[i], again.Rows[i])
		}
	}
}

func TestAccuracyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	res, tbl, err := Accuracy(testParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if res.GeoMeanError > 0.35 {
		t.Errorf("geomean volume-prediction error %.0f%%; paper reports 9%%", res.GeoMeanError*100)
	}
	if res.MaxCSROverestimate < 1.3 || res.MaxCSROverestimate > 4.5 {
		t.Errorf("max CSR over-estimate %.2fx; paper reports up to 2.41x", res.MaxCSROverestimate)
	}
	if !res.CSRAlwaysOver {
		t.Error("CSR predictions must be conservative (always over-estimates), as the paper observes")
	}
}

func TestRuntimeOptShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	res, tbl, err := RuntimeOpt(testParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if res.MeanInterp < res.MeanCython || res.MeanCython < res.MeanNative {
		t.Errorf("ladder must be ordered interp >= cython >= native: %.2f %.2f %.2f",
			res.MeanInterp, res.MeanCython, res.MeanNative)
	}
	if res.MeanInterp < 0.20 || res.MeanInterp > 0.80 {
		t.Errorf("interpreted slowdown %.0f%%; paper band ~41%%", res.MeanInterp*100)
	}
	if res.MeanCython < 0.08 || res.MeanCython > 0.45 {
		t.Errorf("cython slowdown %.0f%%; paper band ~20%%", res.MeanCython*100)
	}
	if res.MeanNative > 0.06 {
		t.Errorf("native slowdown %.1f%%; paper band ~1%%", res.MeanNative*100)
	}
}

// robustnessRowAt returns the cell for one workload and rate.
func robustnessRowAt(r *RobustnessResult, workload string, rate float64) (RobustnessRow, bool) {
	for _, row := range r.Rows {
		if row.Workload == workload && row.Rate == rate {
			return row, true
		}
	}
	return RobustnessRow{}, false
}
