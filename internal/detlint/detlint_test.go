// External test package: the tests (unlike the linter library itself)
// may import the framework's metrics/trace packages, so the repo-clean
// acceptance test runs with the real catalogues injected — exactly the
// configuration cmd/detlint ships.
package detlint_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"activego/internal/detlint"
	"activego/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// repoRoot is the module root relative to this package.
const repoRoot = "../.."

// fixturePatterns lists every violation fixture package. Wildcard
// patterns skip testdata directories, so each package is named
// explicitly — which is also why the fixtures never leak into
// `go build ./...`.
var fixturePatterns = []string{
	"./internal/detlint/testdata/dl001/sim",
	"./internal/detlint/testdata/dl002/render",
	"./internal/detlint/testdata/dl003/emit",
	"./internal/detlint/testdata/dl004/trace",
	"./internal/detlint/testdata/dl005/plan",
	"./internal/detlint/testdata/dl006/driver",
	"./internal/detlint/testdata/dl007/sim",
}

// realConfig mirrors cmd/detlint's production configuration: the live
// catalogue predicate injected into DefaultConfig.
func realConfig() detlint.Config {
	cfg := detlint.DefaultConfig()
	cfg.CataloguedName = metrics.Catalogued
	return cfg
}

// loadFixtures loads every fixture package once; the go list walk
// dominates, so tests share one load.
func loadFixtures(t *testing.T) []*detlint.Package {
	t.Helper()
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := detlint.Load(root, fixturePatterns...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(fixturePatterns) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(fixturePatterns))
	}
	return pkgs
}

// refs is DL007's reference set, the module and perfbench, loaded once
// for every test that needs it.
var refs struct {
	once sync.Once
	pkgs []*detlint.Package
	err  error
}

func loadRefs(t *testing.T) []*detlint.Package {
	t.Helper()
	refs.once.Do(func() {
		root, err := filepath.Abs(repoRoot)
		if err != nil {
			refs.err = err
			return
		}
		refs.pkgs, refs.err = detlint.LoadRefs(root, detlint.DefaultConfig().RefModules)
	})
	if refs.err != nil {
		t.Fatal(refs.err)
	}
	return refs.pkgs
}

// relativize rewrites absolute fixture paths to repo-relative with
// forward slashes so goldens are machine-independent.
func relativize(t *testing.T, diags []detlint.Diagnostic) []detlint.Diagnostic {
	t.Helper()
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]detlint.Diagnostic, len(diags))
	for i, d := range diags {
		rel, err := filepath.Rel(root, d.File)
		if err != nil {
			t.Fatal(err)
		}
		d.File = filepath.ToSlash(rel)
		out[i] = d
	}
	return out
}

func checkGolden(t *testing.T, goldenPath string, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch\n-- got --\n%s-- want --\n%s", got, want)
	}
}

// TestFixturesGolden runs the full suite over every fixture package and
// compares the combined, sorted diagnostics against one golden file.
// Each DL pass provably fires: a per-code presence check backs the
// golden so a regressed pass cannot hide behind -update.
func TestFixturesGolden(t *testing.T) {
	pkgs := loadFixtures(t)
	diags := relativize(t, detlint.Run(realConfig(), pkgs, loadRefs(t)))

	fired := map[string]bool{}
	var buf bytes.Buffer
	for _, d := range diags {
		fired[d.Code] = true
		buf.WriteString(d.Format())
		buf.WriteByte('\n')
	}
	for _, an := range detlint.Analyzers() {
		if !fired[an.Code] {
			t.Errorf("pass %s (%s) did not fire on its fixture", an.Code, an.Name)
		}
	}
	checkGolden(t, filepath.Join("testdata", "fixtures.golden"), buf.String())
}

// TestJSONGolden pins the machine-readable schema satellite: the same
// diagnostics rendered through WriteJSON.
func TestJSONGolden(t *testing.T) {
	pkgs := loadFixtures(t)
	diags := relativize(t, detlint.Run(realConfig(), pkgs, loadRefs(t)))
	var buf bytes.Buffer
	if err := detlint.WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "fixtures.json.golden"), buf.String())
}

// TestRepoClean is the acceptance bar: the production tree carries zero
// violations under the same configuration CI's lint job runs.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo type-check is not short")
	}
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := detlint.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range detlint.Run(realConfig(), pkgs, loadRefs(t)) {
		t.Errorf("unexpected diagnostic: %s", d.Format())
	}
}

// TestDL007CountsPerfbench pins DL007's reference set: perfbench is its
// own module and reaches the framework only through exports, so exports
// it alone calls must not be flagged. Without perfbench in the set, the
// same exports are flagged, which shows the set is really loaded.
func TestDL007CountsPerfbench(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo type-check is not short")
	}
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := detlint.Load(root, "./internal/plan", "./internal/driver", "./internal/platform")
	if err != nil {
		t.Fatal(err)
	}
	moduleOnly, err := detlint.LoadRefs(root, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	perfbenchOnly := []string{"plan.AutoPool", "driver.SetPlanCache", "platform.Platform.Fingerprint"}
	flagged := func(refs []*detlint.Package) map[string]bool {
		out := map[string]bool{}
		for _, d := range detlint.Run(realConfig(), pkgs, refs) {
			if d.Code != "DL007" {
				continue
			}
			for _, name := range perfbenchOnly {
				if strings.Contains(d.Msg, "exported "+name+" ") {
					out[name] = true
				}
			}
		}
		return out
	}
	if got := flagged(loadRefs(t)); len(got) != 0 {
		t.Errorf("DL007 flags exports perfbench calls: %v", got)
	}
	if got := flagged(moduleOnly); len(got) != len(perfbenchOnly) {
		t.Errorf("without perfbench DL007 flags %v, want all of %v", got, perfbenchOnly)
	}
}

// TestCatalogue pins the catalogue's shape: one row per analyzer, in
// order, with non-empty docs — DESIGN.md §13's table is cross-checked
// against this by the docs tests.
func TestCatalogue(t *testing.T) {
	cat := detlint.Catalogue()
	ans := detlint.Analyzers()
	if len(cat) != len(ans) {
		t.Fatalf("catalogue has %d rows, %d analyzers", len(cat), len(ans))
	}
	for i, row := range cat {
		if row.Code != ans[i].Code {
			t.Errorf("row %d: code %s, analyzer %s", i, row.Code, ans[i].Code)
		}
		if row.Doc == "" || row.Name == "" || row.Scope == "" {
			t.Errorf("row %d (%s): incomplete catalogue entry %+v", i, row.Code, row)
		}
		if !strings.HasPrefix(row.Code, "DL") {
			t.Errorf("row %d: code %q does not look like a detlint code", i, row.Code)
		}
	}
}

// TestDeterministicScope pins the import-path scoping rule: final
// segment match, not substring.
func TestDeterministicScope(t *testing.T) {
	cfg := detlint.DefaultConfig()
	for path, want := range map[string]bool{
		"activego/internal/sim":                        true,
		"activego/internal/detlint/testdata/dl":        false,
		"activego/internal/detlint/testdata/dl001/sim": true,
		"activego/internal/simulator":                  false,
		"plan":                                         true,
		"activego/internal/metrics":                    false,
	} {
		if got := cfg.Deterministic(path); got != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, got, want)
		}
	}
}
