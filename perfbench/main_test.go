package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the runner must honour.
type manifest struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// runSmoke runs the command in smoke mode and returns its exit code and
// the parsed JSON line (nil when none was printed).
func runSmoke(t *testing.T, args ...string) (int, *result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append([]string{"--smoke"}, args...), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return code, nil, out.String() + errb.String()
	}
	return code, &res, out.String() + errb.String()
}

// TestSmokeReportsEveryMetric runs every workload in both modes and
// requires exactly the metrics BENCHMARK.json names, with its units.
func TestSmokeReportsEveryMetric(t *testing.T) {
	m := readManifest(t)
	for _, w := range m.Workloads {
		for mode, want := range map[string][]struct{ Name, Unit string }{"0": m.EndToEnd, "1": m.PerLayer} {
			code, res, out := runSmoke(t, "--workload", w.Name, "--trace", mode)
			if code != 0 || res == nil {
				t.Fatalf("%s --trace %s: exit %d\n%s", w.Name, mode, code, out)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", w.Name, mode, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, manifest names %d", w.Name, mode, len(res.Metrics), len(want))
			}
			for _, mt := range want {
				got, ok := res.Metrics[mt.Name]
				switch {
				case !ok:
					t.Errorf("%s --trace %s: no metric %s", w.Name, mode, mt.Name)
				case got.Unit != mt.Unit:
					t.Errorf("%s --trace %s: %s in %q, manifest says %q", w.Name, mode, mt.Name, got.Unit, mt.Unit)
				case mode == "0" && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, mt.Name)
				}
			}
		}
	}
}

func TestCorruptedOutputFails(t *testing.T) {
	code, _, out := runSmoke(t, "--workload", "pipeline", "--corrupt", "output")
	if code != 1 || !strings.Contains(out, "reference check failed") {
		t.Fatalf("exit %d, want 1 with a reference-check failure\n%s", code, out)
	}
}

func TestUnbalancedAccountFails(t *testing.T) {
	for _, w := range []string{"serve", "serve-faulty"} {
		code, _, out := runSmoke(t, "--workload", w, "--corrupt", "account")
		if code != 1 || !strings.Contains(out, "offered") {
			t.Fatalf("%s: exit %d, want 1 with an accounting failure\n%s", w, code, out)
		}
	}
}

// TestDigestMismatchFails plants a wrong digest where a run of the same
// build and seed left one, as a simulator that changed between two runs
// would, and requires the next run to fail its determinism check.
func TestDigestMismatchFails(t *testing.T) {
	dir := t.TempDir()
	args := []string{"--workload", "serve", "--outdir", dir}
	if code, _, out := runSmoke(t, args...); code != 0 {
		t.Fatalf("first run: exit %d\n%s", code, out)
	}
	digests, err := filepath.Glob(filepath.Join(dir, "digest-*.txt"))
	if err != nil || len(digests) != 1 {
		t.Fatalf("want one digest file, got %v (%v)", digests, err)
	}
	if code, _, out := runSmoke(t, args...); code != 0 {
		t.Fatalf("second run of the same seed: exit %d\n%s", code, out)
	}
	if err := os.WriteFile(digests[0], []byte("0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, out := runSmoke(t, args...); code != 1 || !strings.Contains(out, "determinism") {
		t.Fatalf("exit %d, want 1 with a determinism failure\n%s", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve", "--trace", "2"},
		{"--workload", "serve", "--corrupt", "output"},
		{"--workload", "pipeline", "--corrupt", "account"},
	} {
		if code, _, _ := runSmoke(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
