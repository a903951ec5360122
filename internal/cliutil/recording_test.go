package cliutil

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activego/internal/core"
	"activego/internal/platform"
	"activego/internal/profile"
	"activego/internal/workloads"
)

// recordingWindow is the golden run's observation window in simulated
// seconds: about a ninth of tpch-6's 0.88 ms at -scalediv 2048, so the
// snapshot carries several obs.win.* windows.
const recordingWindow = 0.0001

// TestRecordingGolden pins every renderer of one fixed-seed traced,
// metered, and windowed tpch-6 run byte for byte: the -tracesummary
// text, the SHA-256 of the Chrome trace JSON, and the -metrics
// snapshot (minus the wall-clock phase.* histograms). The run is wired
// the way `activego -workload tpch-6 -scalediv 2048 -seed 42 -trace
// -tracesummary -metrics -obswindow` wires it, and Finish performs the
// recorder-to-registry fold. Regenerate after an intentional change to
// a producer or renderer with:
//
//	go test ./internal/cliutil -run TestRecordingGolden -update
func TestRecordingGolden(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "t.json")
	f := parse(t, "-trace", chrome, "-tracesummary", "-metrics", filepath.Join(dir, "m.json"),
		"-obswindow", fmt.Sprint(recordingWindow))

	spec, _ := workloads.ByName("tpch-6")
	params := workloads.Params{ScaleDiv: 2048, Seed: 42}
	inst := spec.Build(params)
	p := platform.Default()
	p.SetRecorder(f.Recorder())
	rt := core.New(p)
	rt.SampleScales = profile.ScaledScales
	rt.Metrics = f.Registry()
	rt.PreloadInputs(inst.Registry)
	cfg := core.DefaultConfig()
	cfg.OverheadScale = params.OverheadScale()
	cfg.ObsWindow = f.ObsWindow
	if _, err := rt.Run(inst.Source, inst.Registry, cfg); err != nil {
		t.Fatal(err)
	}
	p.FoldMetrics(f.Registry())
	if err := f.Finish(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	snap := f.Registry().Snapshot()
	kept := snap.Histograms[:0]
	for _, h := range snap.Histograms {
		if !strings.HasPrefix(h.Name, "phase.") {
			kept = append(kept, h)
		}
	}
	snap.Histograms = kept
	var metricsJSON bytes.Buffer
	if err := snap.WriteJSON(&metricsJSON); err != nil {
		t.Fatal(err)
	}

	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"testdata/recording_tpch6.summary.golden", []byte(f.Recorder().Summary())},
		{"testdata/recording_tpch6.chrome.sha256", []byte(fmt.Sprintf("%x\n", sha256.Sum256(raw)))},
		{"testdata/recording_tpch6.metrics.golden", metricsJSON.Bytes()},
	} {
		if *updateGolden {
			if err := os.WriteFile(g.file, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("recording output drifted from %s (rerun with -update if intentional):\ngot:\n%s", g.file, g.got)
		}
	}
}
