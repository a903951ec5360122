package docs

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"activego/internal/analysis"
	"activego/internal/detlint"
	"activego/internal/experiments"
	"activego/internal/metrics"
)

// Tests run with the package directory as cwd; the repo root is two up.
const root = "../.."

// mdLink matches the target of an inline Markdown link: ](target).
var mdLink = regexp.MustCompile(`\]\(([^()\s]+)\)`)

// TestMarkdownLocalLinksResolve checks that every local link in the
// top-level Markdown files points at a path that exists. External
// (scheme-bearing) links and pure fragments are skipped — CI has no
// business depending on the network.
func TestMarkdownLocalLinksResolve(t *testing.T) {
	mds, err := filepath.Glob(filepath.Join(root, "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mds) == 0 {
		t.Fatal("no top-level Markdown files found; wrong root?")
	}
	for _, md := range mds {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // same-file fragment
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(md), target)); err != nil {
				t.Errorf("%s: broken local link %q", filepath.Base(md), m[1])
			}
		}
	}
}

// TestEveryInternalPackageDocumented walks internal/ and requires each
// package (any directory holding non-test Go files) to carry a
// "// Package <name> ..." doc comment on at least one file.
func TestEveryInternalPackageDocumented(t *testing.T) {
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		files, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		var srcs []string
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				srcs = append(srcs, f)
			}
		}
		if len(srcs) == 0 {
			return nil // no package here (e.g. internal/lang is only a parent dir)
		}
		fset := token.NewFileSet()
		documented := false
		for _, f := range srcs {
			af, perr := parser.ParseFile(fset, f, nil, parser.PackageClauseOnly|parser.ParseComments)
			if perr != nil {
				t.Errorf("parse %s: %v", f, perr)
				continue
			}
			if af.Doc != nil && strings.HasPrefix(af.Doc.Text(), "Package ") {
				documented = true
			}
		}
		if !documented {
			rel, _ := filepath.Rel(root, path)
			t.Errorf("%s has no \"// Package ...\" doc comment on any file", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// backticked matches one backticked span: `text`.
var backticked = regexp.MustCompile("`([^`]+)`")

// TestReadmePackageMapComplete pins README.md's package map to
// internal/, both directions: every top-level directory under internal/
// is named in the map's Package column (subpackage trees like lang/*
// count through their members, so `lang/lexer` covers lang), and every
// package the column names is an existing directory under internal/, so
// a deleted package cannot leave a stale row behind.
func TestReadmePackageMapComplete(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sect, found := strings.Cut(string(data), "\n### Package map\n")
	if !found {
		t.Fatal("README.md has no \"### Package map\" section")
	}
	if i := strings.Index(sect, "\n## "); i >= 0 {
		sect = sect[:i]
	}
	var mapped []string
	for _, line := range strings.Split(sect, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.HasPrefix(strings.TrimSpace(cells[2]), "---") {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[2], -1) {
			mapped = append(mapped, m[1])
		}
	}
	if len(mapped) == 0 {
		t.Fatal("README.md's package map names no packages; table format changed?")
	}
	for _, pkg := range mapped {
		if st, err := os.Stat(filepath.Join(root, "internal", pkg)); err != nil || !st.IsDir() {
			t.Errorf("README.md's package map names %q, which is not a directory under internal/", pkg)
		}
	}
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if !slices.ContainsFunc(mapped, func(pkg string) bool {
			return pkg == name || strings.HasPrefix(pkg, name+"/")
		}) {
			t.Errorf("internal/%s is not in README.md's package map", name)
		}
	}
}

// ctrRow matches one data row of the DESIGN.md §9 series table:
// | `name` | unit | component | sampling point |
var ctrRow = regexp.MustCompile("^\\|\\s*`([a-z0-9_]+(?:\\.[a-z0-9_]+)+)`\\s*\\|\\s*([^|]+?)\\s*\\|\\s*([^|]+?)\\s*\\|")

// catalogueRows returns the rows of metrics.Catalogue() whose kind is
// series (series true) or a registry instrument (series false), by name.
func catalogueRows(series bool) map[string]metrics.MetricInfo {
	rows := map[string]metrics.MetricInfo{}
	for _, m := range metrics.Catalogue() {
		if (m.Kind == metrics.KindSeries) == series {
			rows[m.Name] = m
		}
	}
	return rows
}

// TestCounterCatalogueMatchesDesignDoc pins DESIGN.md §9's series table
// to the series rows of metrics.Catalogue(), both directions: every
// catalogued series is documented with the right unit, its documented
// component is its name's first segment (the lane trace.Recorder.Sample
// files it under), and every documented series exists in code.
func TestCounterCatalogueMatchesDesignDoc(t *testing.T) {
	sect := designSection(t, "9")
	type row struct{ unit, component string }
	documented := map[string]row{}
	for _, line := range strings.Split(sect, "\n") {
		if m := ctrRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = row{unit: m[2], component: m[3]}
		}
	}

	cat := catalogueRows(true)
	if len(documented) != len(cat) {
		t.Errorf("DESIGN.md §9 documents %d series, metrics.Catalogue() has %d", len(documented), len(cat))
	}
	for name, c := range cat {
		doc, ok := documented[name]
		if !ok {
			t.Errorf("series %q is in metrics.Catalogue() but not in DESIGN.md §9", name)
			continue
		}
		if doc.unit != c.Unit {
			t.Errorf("series %q: DESIGN.md unit %q, code unit %q", name, doc.unit, c.Unit)
		}
		if lane, _, _ := strings.Cut(name, "."); doc.component != lane {
			t.Errorf("series %q: DESIGN.md component %q, but its lane is %q", name, doc.component, lane)
		}
	}
	for name := range documented {
		if _, ok := cat[name]; !ok {
			t.Errorf("series %q is documented in DESIGN.md §9 but is not a series of metrics.Catalogue()", name)
		}
	}
}

// designSection returns the body of DESIGN.md section n (text between
// "## n." and the next "## ").
func designSection(t *testing.T, n string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sect, found := strings.Cut(string(data), "\n## "+n+".")
	if !found {
		t.Fatalf("DESIGN.md has no §%s", n)
	}
	if i := strings.Index(sect, "\n## "); i >= 0 {
		sect = sect[:i]
	}
	return sect
}

// passRow matches one data row of the DESIGN.md §13 detlint pass table:
// | `DL001` | name | scope | rule |
var passRow = regexp.MustCompile("^\\|\\s*`(DL[0-9]{3})`\\s*\\|\\s*([^|]+?)\\s*\\|\\s*([^|]+?)\\s*\\|\\s*([^|]+?)\\s*\\|")

// TestDetlintCatalogueMatchesDesignDoc pins DESIGN.md §13's pass table
// to detlint.Catalogue(), both directions — the §9/§10 enforcement
// pattern extended to the repo's own linter tier.
func TestDetlintCatalogueMatchesDesignDoc(t *testing.T) {
	sect := designSection(t, "13")
	type row struct{ name, scope, doc string }
	documented := map[string]row{}
	for _, line := range strings.Split(sect, "\n") {
		if m := passRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = row{name: m[2], scope: m[3], doc: m[4]}
		}
	}

	cat := detlint.Catalogue()
	if len(documented) != len(cat) {
		t.Errorf("DESIGN.md §13 documents %d passes, detlint.Catalogue() has %d", len(documented), len(cat))
	}
	byCode := map[string]bool{}
	for _, p := range cat {
		byCode[p.Code] = true
		doc, ok := documented[p.Code]
		if !ok {
			t.Errorf("pass %q is in detlint.Catalogue() but not in DESIGN.md §13", p.Code)
			continue
		}
		if doc.name != p.Name {
			t.Errorf("pass %q: DESIGN.md name %q, code name %q", p.Code, doc.name, p.Name)
		}
		if doc.scope != p.Scope {
			t.Errorf("pass %q: DESIGN.md scope %q, code scope %q", p.Code, doc.scope, p.Scope)
		}
		if doc.doc != p.Doc {
			t.Errorf("pass %q: DESIGN.md says %q, code says %q", p.Code, doc.doc, p.Doc)
		}
	}
	for code := range documented {
		if !byCode[code] {
			t.Errorf("pass %q is documented in DESIGN.md §13 but missing from detlint.Catalogue()", code)
		}
	}
}

// TestLintCodesDocumentedInDesignDoc requires every AV diagnostic code
// the analysis package can emit to appear in DESIGN.md §8's rule table.
func TestLintCodesDocumentedInDesignDoc(t *testing.T) {
	sect := designSection(t, "8")
	codes := []string{
		analysis.CodeUndefined, analysis.CodeUnknownFunc, analysis.CodeArity,
		analysis.CodeDeadStore, analysis.CodeLoopInvariant, analysis.CodeUnreachable,
		analysis.CodeStrayBreak, analysis.CodeOptimalFallback, analysis.CodeBoundMismatch,
		analysis.CodeUnboundedLoop, analysis.CodeNeverWin, analysis.CodeDrift,
		analysis.CodeIllegalOffload, analysis.CodeUnknownLine, analysis.CodePingPong,
	}
	for _, c := range codes {
		if !strings.Contains(sect, "| "+c+" |") {
			t.Errorf("diagnostic code %s has no row in DESIGN.md §8's rule table", c)
		}
	}
}

// driverName matches a backticked serving-driver metric or counter
// name inside DESIGN.md §14 prose: `driver.<dotted.path>`.
var driverName = regexp.MustCompile("`(driver\\.[a-z0-9_.]+)`")

// prefixed returns the names of metrics.Catalogue() that start with
// prefix, series and instruments alike.
func prefixed(prefix string) map[string]bool {
	known := map[string]bool{}
	for _, m := range metrics.Catalogue() {
		if strings.HasPrefix(m.Name, prefix) {
			known[m.Name] = true
		}
	}
	return known
}

// TestServingSectionMatchesDriverCatalogues pins DESIGN.md §14's prose
// to the driver.* rows of metrics.Catalogue(), both directions: every
// driver metric and series the code registers is named in §14, and
// every `driver.*` name §14 mentions exists in code — the table
// enforcement of §9/§10 extended to the serving layer's own section.
func TestServingSectionMatchesDriverCatalogues(t *testing.T) {
	sect := designSection(t, "14")
	known := prefixed("driver.")
	for name := range known {
		if !strings.Contains(sect, "`"+name+"`") {
			t.Errorf("driver name %q is catalogued but not named in DESIGN.md §14", name)
		}
	}
	if len(known) == 0 {
		t.Fatal("no driver.* rows in the catalogue; wiring broken?")
	}
	for _, m := range driverName.FindAllStringSubmatch(sect, -1) {
		if !known[m[1]] {
			t.Errorf("DESIGN.md §14 names %q, which is not a driver.* row of the catalogue", m[1])
		}
	}
}

// obsName matches a backticked obs metric name inside DESIGN.md §15
// prose: `obs.<dotted.path>` ending on a word character, so scheme
// templates like obs.win.<window>... don't match.
var obsName = regexp.MustCompile("`(obs\\.[a-z0-9_.]*[a-z0-9_])`")

// TestObsSectionMatchesCatalogue pins DESIGN.md §15's prose to the
// obs.* rows of the §10 catalogue, both directions: every obs metric
// the code registers is named in §15, and every `obs.*` name §15
// mentions is either a catalogued metric or a valid obs.win scheme
// instance — the §14 enforcement extended to the observability layer.
func TestObsSectionMatchesCatalogue(t *testing.T) {
	sect := designSection(t, "15")
	known := prefixed("obs.")
	for name := range known {
		if !strings.Contains(sect, "`"+name+"`") {
			t.Errorf("obs metric %q is catalogued but not named in DESIGN.md §15", name)
		}
	}
	if len(known) == 0 {
		t.Fatal("obs catalogue is empty; wiring broken?")
	}
	for _, m := range obsName.FindAllStringSubmatch(sect, -1) {
		if !known[m[1]] && !metrics.Catalogued(m[1]) {
			t.Errorf("DESIGN.md §15 names %q, which is neither catalogued nor a valid obs.win scheme name", m[1])
		}
	}
	// §15 must document the AV012 advisory and the window scheme anchor.
	for _, want := range []string{"AV012", "metrics.ObsWindowPrefix"} {
		if !strings.Contains(sect, want) {
			t.Errorf("DESIGN.md §15 does not mention %s", want)
		}
	}
}

// metricRow matches one data row of the DESIGN.md §10 metric table:
// | `name` | kind | unit | recorded at |
var metricRow = regexp.MustCompile("^\\|\\s*`([a-z0-9_]+(?:\\.[a-z0-9_]+)+)`\\s*\\|\\s*([^|]+?)\\s*\\|\\s*([^|]+?)\\s*\\|\\s*([^|]+?)\\s*\\|")

// TestMetricCatalogueMatchesDesignDoc pins DESIGN.md §10's metric table
// to the instrument (non-series) rows of metrics.Catalogue(), both
// directions — the §9 enforcement pattern extended to the metrics
// layer. The scheme-generated families (series min/mean/max gauges,
// span histograms, obs.win windows) are prose in the doc and structural
// in code, so only individually-named metrics appear in the table.
func TestMetricCatalogueMatchesDesignDoc(t *testing.T) {
	sect := designSection(t, "10")
	type row struct{ kind, unit, source string }
	documented := map[string]row{}
	for _, line := range strings.Split(sect, "\n") {
		if m := metricRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = row{kind: m[2], unit: m[3], source: m[4]}
		}
	}

	cat := catalogueRows(false)
	if len(documented) != len(cat) {
		t.Errorf("DESIGN.md §10 documents %d metrics, metrics.Catalogue() has %d", len(documented), len(cat))
	}
	for _, m := range metrics.Catalogue() {
		if m.Kind == metrics.KindSeries {
			continue
		}
		doc, ok := documented[m.Name]
		if !ok {
			t.Errorf("metric %q is in metrics.Catalogue() but not in DESIGN.md §10", m.Name)
			continue
		}
		if doc.kind != m.Kind {
			t.Errorf("metric %q: DESIGN.md kind %q, code kind %q", m.Name, doc.kind, m.Kind)
		}
		if doc.unit != m.Unit {
			t.Errorf("metric %q: DESIGN.md unit %q, code unit %q", m.Name, doc.unit, m.Unit)
		}
		if doc.source != m.Source {
			t.Errorf("metric %q: DESIGN.md says %q, code says %q", m.Name, doc.source, m.Source)
		}
	}
	for name := range documented {
		if _, ok := cat[name]; !ok {
			t.Errorf("metric %q is documented in DESIGN.md §10 but is not an instrument of metrics.Catalogue()", name)
		}
	}
}

// regenCell matches the "Regenerate with" cell of a DESIGN.md §3 row:
// `cmd/benchsuite -exp NAME`, `BenchmarkExperiments/NAME`.
var regenCell = regexp.MustCompile("^\\s*`cmd/benchsuite -exp ([a-z0-9]+)`, `BenchmarkExperiments/([a-z0-9]+)`\\s*$")

// TestExperimentIndexMatchesRegistry pins DESIGN.md §3's per-experiment
// index to experiments.All(): its rows regenerate exactly the
// registry's experiments, in suite order, each through the same name on
// benchsuite -exp and on BenchmarkExperiments.
func TestExperimentIndexMatchesRegistry(t *testing.T) {
	sect := designSection(t, "3")
	var documented []string
	for _, line := range strings.Split(sect, "\n") {
		if !strings.HasPrefix(line, "| **") {
			continue
		}
		cells := strings.Split(line, "|")
		regen := cells[len(cells)-2]
		m := regenCell.FindStringSubmatch(regen)
		if m == nil || m[1] != m[2] {
			t.Errorf("DESIGN.md §3 row %q: regenerate cell %q is not `cmd/benchsuite -exp NAME`, `BenchmarkExperiments/NAME`", cells[1], regen)
			continue
		}
		documented = append(documented, m[1])
	}
	var registered []string
	for _, e := range experiments.All() {
		registered = append(registered, e.Name)
	}
	if !slices.Equal(documented, registered) {
		t.Errorf("DESIGN.md §3 regenerates %v; experiments.All() is %v", documented, registered)
	}
}
