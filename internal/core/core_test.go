package core_test

import (
	"strings"
	"testing"

	"activego/internal/analysis"
	"activego/internal/baseline"
	"activego/internal/codegen"
	"activego/internal/core"
	"activego/internal/exec"
	"activego/internal/inputs"
	"activego/internal/lang/parser"
	"activego/internal/lang/value"
	"activego/internal/platform"
	"activego/internal/profile"
	"activego/internal/workloads"
)

const scanProgram = `v = load("sensors")
big = vselect(v, vgt(v, 0.5))
n = vlen(big)
s = vsum(big)
`

func scanRegistry(n int) *inputs.Registry {
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i%100) / 100
	}
	reg := inputs.NewRegistry()
	reg.Add("sensors", value.NewVec(data), inputs.ModeRows)
	return reg
}

func newRuntime() *core.Runtime {
	rt := core.New(platform.Default())
	rt.SampleScales = profile.ScaledScales
	return rt
}

func TestPreloadInputsPopulatesStore(t *testing.T) {
	reg := scanRegistry(1 << 16)
	rt := newRuntime()
	rt.PreloadInputs(reg)
	obj, ok := rt.Plat.Dev.Store.Lookup("sensors")
	if !ok {
		t.Fatal("object not preloaded")
	}
	if obj.Size != int64(1<<16*8) {
		t.Errorf("preloaded size %d", obj.Size)
	}
}

func TestAnalyzeProducesPlanAndProfile(t *testing.T) {
	reg := scanRegistry(1 << 18)
	rt := newRuntime()
	rt.PreloadInputs(reg)
	pr, err := rt.Prepare(&workloads.Instance{Source: scanProgram, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	prog, rep, planRes := pr.Program, pr.Profile, pr.Plan
	if prog.MaxLine() != 4 {
		t.Errorf("program lines %d", prog.MaxLine())
	}
	if len(rep.Lines) != 4 {
		t.Errorf("profiled lines %d", len(rep.Lines))
	}
	if planRes.THost <= 0 || planRes.TCSD <= 0 || planRes.TCSD > planRes.THost {
		t.Errorf("plan times host=%v csd=%v", planRes.THost, planRes.TCSD)
	}
	// This scan is ISP-friendly: the plan must offload the load+filter.
	if !planRes.Partition.OnCSD(1) || !planRes.Partition.OnCSD(2) {
		t.Errorf("plan %v should offload the scan", planRes.Partition.Lines())
	}
}

func TestRunComputesCorrectValues(t *testing.T) {
	reg := scanRegistry(1 << 16)
	rt := newRuntime()
	rt.PreloadInputs(reg)
	cfg := core.DefaultConfig()
	cfg.OverheadScale = 1e-4
	out, err := rt.Run(scanProgram, reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 49/100 of values exceed 0.5 regardless of placement.
	nv, _ := out.Env.Get("n")
	if int64(nv.(value.Int)) != int64(1<<16/100*49) {
		t.Errorf("n = %v", nv)
	}
	if out.Exec.Duration <= 0 {
		t.Error("no simulated time elapsed")
	}
	if out.Plan == nil || out.Profile == nil || out.Trace == nil {
		t.Error("outcome incomplete")
	}
}

// TestRunWithPartitionForcesPlacement runs a prepared program under a
// programmer-directed partition, as a statically compiled C program
// runs: the partition, not the plan, decides placement.
func TestRunWithPartitionForcesPlacement(t *testing.T) {
	pr := prepare(t, scanProgram)
	res, err := baseline.RunStatic(platform.Default(), pr.Trace, codegen.NewPartition(1, 2), codegen.C)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsOnCSD != 2 || res.RecordsOnHost != 2 {
		t.Errorf("records %d/%d, want 2/2", res.RecordsOnCSD, res.RecordsOnHost)
	}
}

// prepare takes src over a small scan registry through Prepare.
func prepare(t *testing.T, src string) *core.Prepared {
	t.Helper()
	reg := scanRegistry(1 << 16)
	rt := newRuntime()
	rt.PreloadInputs(reg)
	pr, err := rt.Prepare(&workloads.Instance{Source: src, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestParseErrorsSurface(t *testing.T) {
	rt := newRuntime()
	if _, err := rt.Prepare(&workloads.Instance{Source: "x = (\n", Registry: scanRegistry(10)}); err == nil {
		t.Error("parse error swallowed")
	}
	if _, err := rt.Run("y = load(\"nope\")\n", scanRegistry(10), core.DefaultConfig()); err == nil {
		t.Error("missing input error swallowed")
	}
}

func TestDefaultSampleScalesAreThePapers(t *testing.T) {
	rt := core.New(platform.Default())
	if rt.SampleScales != nil {
		t.Error("default runtime must use profile.Scales (nil field)")
	}
	if len(profile.Scales) != 4 || profile.Scales[0] != 1.0/1024 || profile.Scales[3] != 1.0/128 {
		t.Errorf("paper scale factors changed: %v", profile.Scales)
	}
}

// printProgram ends with an externally visible host-only effect: the
// print on line 4 pins that line to the host.
const printProgram = `v = load("sensors")
big = vselect(v, vgt(v, 0.5))
s = vsum(big)
print(s)
`

func TestPlannerNeverSelectsHostOnlyLine(t *testing.T) {
	reg := scanRegistry(1 << 18)
	rt := newRuntime()
	rt.PreloadInputs(reg)
	cfg := core.DefaultConfig()
	cfg.OverheadScale = 1e-4
	out, err := rt.Run(printProgram, reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Plan.Partition.OnCSD(4) {
		t.Errorf("planner offloaded the print line: %v", out.Plan.Partition.Lines())
	}
	if out.Analysis == nil {
		t.Fatal("outcome carries no analysis report")
	}
	// The chosen partition must pass its own verification.
	if verr := out.Analysis.VerifyError(out.Plan.Partition); verr != nil {
		t.Errorf("planner produced an illegal partition: %v", verr)
	}
	// The scan itself must still offload: masking line 3 does not cost
	// lines 1-2 their placement.
	if !out.Plan.Partition.OnCSD(1) || !out.Plan.Partition.OnCSD(2) {
		t.Errorf("plan %v should still offload the scan", out.Plan.Partition.Lines())
	}
	if out.Plan.Planner == "" {
		t.Error("Result.Planner not recorded")
	}
}

// TestIllegalPartitionRejectedBeforeExecution: a programmer-directed
// partition gets the same legality gate as the planner's — the prepared
// program's analysis report travels into exec, which refuses an illegal
// offload before any simulated work happens.
func TestIllegalPartitionRejectedBeforeExecution(t *testing.T) {
	pr := prepare(t, printProgram)
	// Deliberately offload the print-bearing line: the exec gate must
	// refuse it with a diagnostic naming the line and the builtin.
	p := platform.Default()
	_, err := exec.Run(p, pr.Trace, exec.Options{
		Backend:   codegen.C,
		Partition: codegen.NewPartition(1, 2, 4),
		Analysis:  pr.Analysis,
	})
	if err == nil {
		t.Fatal("illegal partition executed")
	}
	if !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "print") {
		t.Errorf("error %q must name line 4 and print", err)
	}
	if p.Sim.EventsFired() != 0 {
		t.Errorf("rejected run fired %d events", p.Sim.EventsFired())
	}
}

// TestUseBeforeDefRejectedBeforeExecution: a program with a use before
// any definition cannot be prepared (its sampling runs fail on it), and
// its analysis report makes exec refuse any trace it is handed before
// the trace replays.
func TestUseBeforeDefRejectedBeforeExecution(t *testing.T) {
	const ghostProgram = "v = load(\"sensors\")\ns = vsum(ghost)\n"
	reg := scanRegistry(1 << 16)
	rt := newRuntime()
	rt.PreloadInputs(reg)
	if _, err := rt.Prepare(&workloads.Instance{Source: ghostProgram, Registry: reg}); err == nil {
		t.Fatal("use-before-def prepared")
	}
	prog, err := parser.Parse(ghostProgram)
	if err != nil {
		t.Fatal(err)
	}
	static, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	// ghost has no definition anywhere; verification rejects the program
	// whatever the trace and partition.
	p := platform.Default()
	_, err = exec.Run(p, prepare(t, scanProgram).Trace, exec.Options{
		Backend:   codegen.C,
		Partition: codegen.NewPartition(1),
		Analysis:  static,
	})
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("use-before-def executed: err = %v", err)
	}
	if p.Sim.EventsFired() != 0 {
		t.Errorf("rejected run fired %d events", p.Sim.EventsFired())
	}
}
