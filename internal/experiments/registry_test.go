package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"activego/internal/bench"
)

// TestRegistryMatchesCommittedManifests pins the registry to the
// committed baselines in both directions: every experiment has a
// benchmarks/BENCH_<name>.json whose experiment field is its name, and
// every committed manifest names a registered experiment, so CI's
// compare loop over benchmarks/BENCH_*.json covers every study. It
// reads JSON only and runs nothing.
func TestRegistryMatchesCommittedManifests(t *testing.T) {
	dir := filepath.Join("..", "..", "benchmarks")
	registered := map[string]bool{}
	for _, e := range All() {
		if registered[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		registered[e.Name] = true
		m, err := bench.ReadFile(filepath.Join(dir, "BENCH_"+e.Name+".json"))
		if err != nil {
			t.Errorf("experiment %q has no committed manifest: %v", e.Name, err)
			continue
		}
		if m.Experiment != e.Name {
			t.Errorf("BENCH_%s.json records experiment %q", e.Name, m.Experiment)
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
