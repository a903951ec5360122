package cliutil

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"activego/internal/metrics"
)

// parse registers the whole surface — the sinks and every opt-in flag —
// and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	f.RegisterJobs(fs)
	f.RegisterPlanner(fs)
	f.RegisterObsWindow(fs)
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
		t.Error("registry without -metrics")
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

// flagNames lists the flags defined on fs, sorted.
func flagNames(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	return names
}

func TestFlagNamesStayStable(t *testing.T) {
	// The three commands advertise these exact names; renaming one here
	// silently breaks every documented invocation. Register defines only
	// the sinks every command honours, and each opt-in call defines
	// exactly its own flags and is made by exactly the commands listed,
	// so no command accepts a flag it never reads.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs)
	if got, want := flagNames(fs), []string{"memprofile", "metrics", "pprof", "trace", "tracesummary"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Register defines %v, want %v", got, want)
	}
	commands := []string{"activego", "benchsuite", "csdsim"}
	mains := map[string]string{}
	for _, cmd := range commands {
		src, err := os.ReadFile(filepath.Join("..", "..", "cmd", cmd, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		mains[cmd] = string(src)
	}
	for _, c := range []struct {
		call     string
		register func(*Flags, *flag.FlagSet)
		want     []string
		callers  []string
	}{
		{"RegisterJobs", (*Flags).RegisterJobs, []string{"j"}, []string{"activego", "benchsuite"}},
		{"RegisterPlanner", (*Flags).RegisterPlanner, []string{"planner"}, []string{"activego"}},
		{"RegisterObsWindow", (*Flags).RegisterObsWindow, []string{"obswindow"}, []string{"activego"}},
		{"RegisterServing", func(_ *Flags, fs *flag.FlagSet) { RegisterServing(fs) }, []string{"arrival", "duration", "qps", "tenants"}, commands},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		c.register(&Flags{}, fs)
		if got := flagNames(fs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s defines %v, want %v", c.call, got, c.want)
		}
		var callers []string
		for _, cmd := range commands {
			if strings.Contains(mains[cmd], "."+c.call+"(flag.CommandLine)") {
				callers = append(callers, cmd)
			}
		}
		if !reflect.DeepEqual(callers, c.callers) {
			t.Errorf("%s is called by %v, want %v", c.call, callers, c.callers)
		}
	}
}

func TestPoolSerialWithoutJobsFlag(t *testing.T) {
	if p := Register(flag.NewFlagSet("test", flag.ContinueOnError)).Pool(); p != nil {
		t.Error("Pool() without RegisterJobs should be the serial nil pool")
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
