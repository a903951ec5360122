package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"activego/internal/bench"
	"activego/internal/metrics"
	"activego/internal/par"
	"activego/internal/report"
	"activego/internal/workloads"
)

// TestRegistryMatchesCommittedManifests pins the registry to the
// committed baselines in both directions: every experiment has a
// benchmarks/BENCH_<name>.json whose experiment field is its name, and
// every committed manifest names a registered experiment, so CI's
// compare loop over benchmarks/BENCH_*.json covers every study. Each
// committed manifest's top-level keys are exactly those the documented
// regeneration command (benchsuite -outdir, no -metrics) writes: no
// metrics section and no field the writer has since dropped. It reads
// JSON only and runs nothing.
func TestRegistryMatchesCommittedManifests(t *testing.T) {
	dir := filepath.Join("..", "..", "benchmarks")
	topKeys := func(data []byte) []string {
		var top map[string]json.RawMessage
		if err := json.Unmarshal(data, &top); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(top))
		for k := range top {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	written := bench.NewManifest("", 0, 0)
	written.CaptureRuntime()
	data, err := json.Marshal(written)
	if err != nil {
		t.Fatal(err)
	}
	want := topKeys(data)
	registered := map[string]bool{}
	for _, e := range All() {
		if registered[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		registered[e.Name] = true
		path := filepath.Join(dir, "BENCH_"+e.Name+".json")
		m, err := bench.ReadFile(path)
		if err != nil {
			t.Errorf("experiment %q has no committed manifest: %v", e.Name, err)
			continue
		}
		if m.Experiment != e.Name {
			t.Errorf("BENCH_%s.json records experiment %q", e.Name, m.Experiment)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := topKeys(data); !slices.Equal(got, want) {
			t.Errorf("BENCH_%s.json has top-level keys %v, the regeneration command writes %v", e.Name, got, want)
		}
	}
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		if !registered[name] {
			t.Errorf("%s names no registered experiment", p)
		}
	}
}

func TestByName(t *testing.T) {
	for _, e := range All() {
		if got, ok := ByName(e.Name); !ok || got.Name != e.Name {
			t.Errorf("ByName(%q) = %q, %t", e.Name, got.Name, ok)
		}
	}
	if _, ok := ByName("nosuch"); ok {
		t.Error("ByName found an unregistered experiment")
	}
}

// TestSuiteMatchesStandaloneRuns pins the shared set to the standalone
// path: every experiment prints the same text and builds the same
// manifest whether RunSuite hands it the union's read-only set or it
// runs alone, and a study run alone prepares exactly the programs it
// declares — each once, counted by the parse phase.
func TestSuiteMatchesStandaloneRuns(t *testing.T) {
	suite := All()
	shared, err := RunSuite(suite, testParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range suite {
		reg := metrics.New()
		alone, err := e.Run(testParams(), WithMetrics(reg))
		if err != nil {
			t.Fatalf("%s alone: %v", e.Name, err)
		}
		if alone.Text != shared[i].Text {
			t.Errorf("%s: text differs run alone:\nalone:\n%s\nsuite:\n%s", e.Name, alone.Text, shared[i].Text)
		}
		a, err := json.Marshal(alone.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		s, err := json.Marshal(shared[i].Manifest)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, s) {
			t.Errorf("%s: manifest differs run alone:\nalone: %s\nsuite: %s", e.Name, a, s)
		}
		if got, want := reg.Histogram(metrics.PhaseParse).Count(), uint64(len(e.Programs.Names)); got != want {
			t.Errorf("%s alone prepared %d programs, declares %d", e.Name, got, want)
		}
	}
}

// TestSuiteMetricsParallelInvariance: the suite's registry — the
// preparation's merged first, then each experiment's in suite order —
// is the same at -j 1 and -j 8 up to the phase timers' wall-clock
// fields. The union of the declared programs is prepared once each.
func TestSuiteMetricsParallelInvariance(t *testing.T) {
	run := func(pool *par.Pool) metrics.Snapshot {
		reg := metrics.New()
		if _, err := RunSuite(All(), testParams(), WithMetrics(reg), WithPool(pool)); err != nil {
			t.Fatal(err)
		}
		return canonSnap(reg.Snapshot())
	}
	serial := run(nil)
	parallel := run(par.New(8))
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("suite metrics differ under the pool:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	union := map[string]bool{}
	for _, e := range All() {
		for _, name := range e.Programs.Names {
			union[name] = true
		}
	}
	for _, h := range serial.Histograms {
		if h.Name == metrics.PhaseParse && h.Count != uint64(len(union)) {
			t.Errorf("suite prepared %d programs, the union has %d", h.Count, len(union))
		}
	}
}

// TestStudyReadsOnlyDeclaredPrograms: a study reading a program it did
// not declare fails, in the suite too, where another study's
// declaration put that program in the shared set — it never prepares
// the program quietly. A study that did not declare the static bar does
// not see one.
func TestStudyReadsOnlyDeclaredPrograms(t *testing.T) {
	decl := Programs{Names: []string{"tpch-6"}}
	rogue := study("rogue", decl, func(params workloads.Params, opts ...Option) (*Fig2Result, *report.Table, error) {
		o := buildOptions(opts)
		set, err := o.programs(params, decl)
		if err != nil {
			return nil, nil, err
		}
		if _, err := set.workbench("tpch-1", nil); err != nil {
			return nil, nil, err
		}
		return &Fig2Result{}, report.NewTable("rogue"), nil
	}, nil)
	fig2, _ := ByName("fig2")
	_, err := RunSuite([]Experiment{fig2, rogue}, testParams())
	if err == nil || !strings.Contains(err.Error(), "tpch-1 is not among the study's declared programs") {
		t.Errorf("suite run: err = %v", err)
	}

	reg := metrics.New()
	_, err = rogue.Run(testParams(), WithMetrics(reg))
	if err == nil || !strings.Contains(err.Error(), "not among") {
		t.Errorf("standalone run: err = %v", err)
	}
	if n := reg.Histogram(metrics.PhaseParse).Count(); n != 1 {
		t.Errorf("standalone run prepared %d programs, declares 1", n)
	}

	// The static search runs only for programs a declaration with Static
	// lists, and a study that did not declare it does not see it.
	set, err := prepareSet(testParams(), []Programs{decl, {Names: []string{"tpch-1"}, Static: true}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.wbs["tpch-6"].StaticTime != 0 || set.wbs["tpch-1"].StaticTime == 0 {
		t.Errorf("static bar: tpch-6 %v (undeclared), tpch-1 %v (declared)",
			set.wbs["tpch-6"].StaticTime, set.wbs["tpch-1"].StaticTime)
	}
	wb, err := (&programSet{wbs: set.wbs, decl: Programs{Names: []string{"tpch-1"}}}).workbench("tpch-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wb.RunStatic(nil); err == nil {
		t.Error("a study without the static bar ran it")
	}
}
