package cliutil

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activego/internal/metrics"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	f.RegisterMonitor(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDefaultsAreInert(t *testing.T) {
	f := parse(t)
	if f.Recorder() != nil {
		t.Error("recorder without -trace/-tracesummary/-metrics")
	}
	if f.Registry() != nil {
		t.Error("registry without -metrics/-httpmon")
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("inert flags produced output: %q", buf.String())
	}
}

func TestFlagNamesStayStable(t *testing.T) {
	// The three commands advertise these exact names; renaming one here
	// silently breaks every documented invocation.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	f.RegisterMonitor(fs)
	for _, name := range []string{"trace", "tracesummary", "pprof", "memprofile", "metrics", "httpmon"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestMetricsImpliesRecorder(t *testing.T) {
	f := parse(t, "-metrics", "-")
	if f.Recorder() == nil {
		t.Error("-metrics should create a recorder for the recording fold")
	}
	if f.Registry() == nil {
		t.Error("-metrics should create a registry")
	}
}

func TestProfilesAndMetricsWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, met := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb"), filepath.Join(dir, "m.json")
	f := parse(t, "-pprof", cpu, "-memprofile", mem, "-metrics", met)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	f.Registry().Counter("exec.runs").Add(3)
	var buf bytes.Buffer
	if err := f.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem, met} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	for _, want := range []string{"pprof: wrote", "memprofile: wrote", "metrics: wrote"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("progress output missing %q:\n%s", want, buf.String())
		}
	}
	raw, _ := os.ReadFile(met)
	var snap metrics.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file is not a snapshot: %v", err)
	}
}

func TestMetricsToStdout(t *testing.T) {
	f := parse(t, "-metrics", "-")
	f.Registry().Gauge("machine.sim.events").Set(7)
	var buf bytes.Buffer
	if err := f.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "machine.sim.events") {
		t.Errorf("stdout snapshot missing gauge:\n%s", buf.String())
	}
}

func TestTraceOutputs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	f := parse(t, "-trace", path, "-tracesummary")
	rec := f.Recorder()
	if rec == nil {
		t.Fatal("no recorder")
	}
	rec.Span("exec", "line", "l1", 0, 1)
	var buf bytes.Buffer
	if err := f.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trace: wrote") {
		t.Errorf("no trace progress line:\n%s", buf.String())
	}
}

func TestStartMonitorServes(t *testing.T) {
	f := parse(t, "-httpmon", "127.0.0.1:0")
	addr, err := f.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("no bound address")
	}
	f.Registry().Counter("exec.runs").Add(1)
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "exec.runs") {
		t.Errorf("/metrics missing live counter:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars not expvar output:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ not the pprof index:\n%s", body)
	}
}

func TestStartMonitorOffByDefault(t *testing.T) {
	f := parse(t)
	addr, err := f.StartMonitor()
	if err != nil || addr != "" {
		t.Errorf("monitor started without -httpmon: %q, %v", addr, err)
	}
}
