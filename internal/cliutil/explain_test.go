package cliutil

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestExplainGolden pins the fixed-seed `activego explain` table for the
// fig5-canonical TPC-H Q6 workload byte for byte. Regenerate after an
// intentional planner or renderer change with:
//
//	go test ./internal/cliutil -run TestExplainGolden -update
func TestExplainGolden(t *testing.T) {
	checkExplainGolden(t, "testdata/explain_tpch6.golden",
		ExplainOptions{Workload: "tpch-6", ScaleDiv: 2048, Seed: 42})
}

// TestExplainRunGolden pins `activego explain -workload tpch-6
// -scalediv 2048 -seed 42 -run` byte for byte: the plan columns and the
// drift cross-links of the windowed run, with the window derived from
// the plan's projected runtime. Regenerate with -run TestExplainRunGolden
// -update.
func TestExplainRunGolden(t *testing.T) {
	checkExplainGolden(t, "testdata/explain_tpch6_run.golden",
		ExplainOptions{Workload: "tpch-6", ScaleDiv: 2048, Seed: 42, Run: true})
}

func checkExplainGolden(t *testing.T, golden string, o ExplainOptions) {
	t.Helper()
	var buf bytes.Buffer
	if err := Explain(&buf, o); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("explain output drifted from %s (rerun with -update if intentional):\ngot:\n%s\nwant:\n%s", golden, buf.String(), want)
	}
}

// TestExplainRunCrossLinksDrift exercises the -run path: the windowed
// execution fills the drift columns, and an undisturbed run must not
// flag any line stale.
func TestExplainRunCrossLinksDrift(t *testing.T) {
	var buf bytes.Buffer
	err := Explain(&buf, ExplainOptions{Workload: "tpch-6", ScaleDiv: 2048, Seed: 42, Run: true})
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"obs.s/exec", "drift", "stale"} {
		if !strings.Contains(s, want) {
			t.Errorf("run table missing drift column %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "since w") {
		t.Errorf("undisturbed run must not flag stale lines:\n%s", s)
	}
}

// TestExplainJSON pins the machine-readable twin: valid JSON carrying
// the provenance lines and, under -run, a drift report.
func TestExplainJSON(t *testing.T) {
	var buf bytes.Buffer
	err := Explain(&buf, ExplainOptions{Workload: "tpch-6", ScaleDiv: 2048, Seed: 42, JSON: true, Run: true})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Provenance struct {
			Planner string `json:"planner"`
			Lines   []struct {
				Line int `json:"line"`
			} `json:"lines"`
		} `json:"provenance"`
		Drift *struct {
			Lines []struct {
				Line int `json:"line"`
			} `json:"lines"`
		} `json:"drift"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("explain JSON: %v\n%s", err, buf.String())
	}
	if doc.Provenance.Planner == "" || len(doc.Provenance.Lines) == 0 {
		t.Errorf("JSON provenance incomplete: %+v", doc.Provenance)
	}
	if doc.Drift == nil || len(doc.Drift.Lines) == 0 {
		t.Error("JSON drift report missing under -run")
	}
}

func TestExplainUnknownWorkload(t *testing.T) {
	err := Explain(&bytes.Buffer{}, ExplainOptions{Workload: "no-such-workload"})
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("err = %v", err)
	}
}
