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
