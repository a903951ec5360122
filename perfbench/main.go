// Command perfbench is activego's benchmark runner. It drives one
// workload through the repository's public layer entry points in a
// single process and a single goroutine, checks every op's outputs, and
// prints every metric by name and unit; the last line of its output is
// one JSON object. See README.md beside this file for the workloads,
// the metrics and the layer-to-end-to-end predictions.
//
//	perfbench --workload pipeline|serve|serve-faulty [--seed N] [--seconds S]
//	          [--trace 0|1] [--smoke] [--corrupt output|account] [--outdir DIR]
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced ops and reports the per-layer metrics
// and the tracing overhead. The exit code is 0 only when every op passed
// its correctness, fidelity and determinism checks.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"activego/internal/workloads"
)

// scaleDiv is the input scale of the committed benchmark manifests.
const scaleDiv = 2048

// setupReps is how many times a run sets up, so set-up time is reported
// as a median rather than as one cold reading.
const setupReps = 3

// minOps is the fewest timed ops (of each kind, when traced) in a run.
const minOps = 3

// outcome is one op's results.
type outcome struct {
	units  int                // programs run, or requests offered
	sim    map[string]float64 // simulated end-to-end figures
	counts *counts
	digest string
	notes  map[string]string // qualifiers of the sim_* figures
	// check validates the op's outputs after the clocks stopped and
	// returns how many of the units completed correctly.
	check func() (good int, err error)
}

// counts accumulates one op's simulated per-layer figures and the
// fingerprints of the machines it ran.
type counts struct {
	vals map[string]float64
	fps  []string
}

func newCounts() *counts { return &counts{vals: map[string]float64{}} }

func (c *counts) add(name string, v float64) { c.vals[name] += v }
func (c *counts) set(name string, v float64) { c.vals[name] = v }
func (c *counts) fingerprint(fp string)      { c.fps = append(c.fps, fp) }

// determinism is everything simulated about an op, as text: two ops of
// one seed must produce the same string.
func (o *outcome) determinism() string {
	var b strings.Builder
	b.WriteString(o.digest)
	for _, k := range sortedKeys(o.sim) {
		fmt.Fprintf(&b, "\n%s=%v", k, o.sim[k])
	}
	for _, k := range sortedKeys(o.counts.vals) {
		fmt.Fprintf(&b, "\n%s=%v", k, o.counts.vals[k])
	}
	for _, fp := range o.counts.fps {
		fmt.Fprintf(&b, "\n%s", fp)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// workload is one benchmark workload after set-up.
type workload interface {
	op(tr *tracer) (*outcome, error)
	describe() string
}

type config struct {
	name    string
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	corrupt string
	outdir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the benchmark and returns the exit code: 0 on
// success, 1 when a check failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.name, "workload", "", "pipeline, serve or serve-faulty")
	fs.Int64Var(&cfg.seed, "seed", 42, "seed of the input generators and the arrival and fault streams")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed phase runs")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from traced ops")
	fs.BoolVar(&cfg.smoke, "smoke", false, "one set-up, one op (one of each when traced), short serving horizon")
	fs.StringVar(&cfg.corrupt, "corrupt", "", "deliberately corrupt a program output (pipeline: output) or an account (serving: account)")
	fs.StringVar(&cfg.outdir, "outdir", "", "directory for the span file and the determinism digests (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	if err := cfg.validate(traceFlag); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	if rep == nil {
		return 1
	}
	for _, name := range rep.names {
		m := rep.vals[name]
		line := fmt.Sprintf("%-24s %14.6g %s", name, m.Value, m.Unit)
		if n := rep.notes[name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(stdout, line)
	}
	res.Metrics = rep.vals
	enc, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(stderr, "perfbench:", merr)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

func (c config) validate(traceFlag int) error {
	switch {
	case c.name != "pipeline" && c.name != "serve" && c.name != "serve-faulty":
		return fmt.Errorf("unknown --workload %q (pipeline, serve, serve-faulty)", c.name)
	case traceFlag != 0 && traceFlag != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	case c.seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case c.corrupt == "output" && c.name != "pipeline",
		c.corrupt == "account" && c.name == "pipeline",
		c.corrupt != "" && c.corrupt != "output" && c.corrupt != "account":
		return fmt.Errorf("--corrupt %q does not apply to %s", c.corrupt, c.name)
	}
	return nil
}

// result is the JSON line. attempted counts timed ops; failed counts
// those whose correctness check failed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setUp builds the workload once, runs and checks one warm-up op, and
// returns the workload with the warm-up op's outcome.
func setUp(cfg config) (workload, *outcome, error) {
	params := workloads.Params{ScaleDiv: scaleDiv, Seed: cfg.seed}
	var w workload
	switch cfg.name {
	case "pipeline":
		w = newPipeline(params, cfg.corrupt == "output")
	default:
		s, err := newServing(params, cfg.name == "serve-faulty", cfg.smoke, cfg.corrupt == "account")
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		w = s
	}
	out, err := w.op(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up op: %w", err)
	}
	if _, err := out.check(); err != nil {
		return nil, nil, fmt.Errorf("warm-up op: %w", err)
	}
	if p, ok := w.(*pipeline); ok {
		if err := p.checkFidelity(); err != nil {
			return nil, nil, err
		}
	}
	return w, out, nil
}

// timedOp is one timed op's host cost.
type timedOp struct {
	cost   opCost
	traced bool
	op     int // the op's index in the tracer
}

func bench(cfg config, stdout io.Writer) (*report, result, error) {
	res := result{Correct: true}
	reps := setupReps
	if cfg.smoke {
		reps = 1
	}
	var w workload
	var ref string
	var setups []float64
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		wk, out, err := setUp(cfg)
		if err != nil {
			return nil, res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		d := out.determinism()
		if k == 0 {
			ref = d
		} else if d != ref {
			return nil, res, errors.New("determinism: set-ups of one seed simulated different runs")
		}
		w = wk
	}
	if err := checkDigest(cfg, ref); err != nil {
		return nil, res, err
	}
	fmt.Fprintln(stdout, w.describe())

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var ops []timedOp
	var last *outcome
	good, units := 0, 0
	ops1 := minOps
	if cfg.smoke {
		ops1 = 1
	}
	if cfg.trace {
		ops1 *= 2
	}
	steal0, stealOK := stealSeconds()
	start := time.Now()
	var failure error
	for i := 0; i < ops1 || (!cfg.smoke && time.Since(start).Seconds() < cfg.seconds); i++ {
		traced := cfg.trace && i%2 == 1
		var t *tracer
		if traced {
			t = tr
			t.op = i
		}
		a := readStamp()
		s := t.begin("op")
		out, err := w.op(t)
		t.end(s)
		b := readStamp()
		res.Attempted++
		if err != nil {
			res.Failed++
			failure = fmt.Errorf("op %d: %w", i, err)
			break
		}
		ops = append(ops, timedOp{cost: costBetween(a, b), traced: traced, op: i})
		g, cerr := out.check()
		good += g
		units += out.units
		if cerr == nil && out.determinism() != ref {
			cerr = errors.New("determinism: this op simulated a different run than the warm-up op")
		}
		if cerr != nil {
			res.Failed++
			failure = fmt.Errorf("op %d: %w", i, cerr)
			fmt.Fprintln(stdout, "FAILED", failure)
		}
		last = out
	}
	steal1, _ := stealSeconds()
	res.Correct = failure == nil
	if last == nil {
		return nil, res, failure
	}

	rep := newReport()
	if cfg.trace {
		perLayer(rep, tr, ops, last)
		if stealOK {
			rep.set("host.steal_s", (steal1-steal0)/float64(len(ops)), "s/op")
		} else {
			rep.set("host.steal_s", 0, "s/op")
			rep.note("host.steal_s", "/proc/stat unreadable")
		}
		if cfg.outdir != "" {
			path := filepath.Join(cfg.outdir, fmt.Sprintf("spans-%s-%d.json", cfg.name, cfg.seed))
			if err := tr.write(path); err != nil {
				return rep, res, err
			}
		}
	} else {
		endToEnd(rep, median(setups), len(setups), ops, last, good, units)
	}
	return rep, res, failure
}

// endToEnd fills in the end-to-end metrics from untraced ops.
func endToEnd(rep *report, setup float64, nSetups int, ops []timedOp, last *outcome, good, units int) {
	var wall, cpu, alloc []float64
	for _, o := range ops {
		wall = append(wall, o.cost.wall)
		cpu = append(cpu, o.cost.cpu)
		alloc = append(alloc, o.cost.allocMB)
	}
	rep.set("setup_s", setup, "s")
	rep.note("setup_s", "median of %d set-ups", nSetups)
	rep.set("cpu_s", median(cpu), "s/op")
	rep.note("cpu_s", "median of %d ops, range %.4g-%.4g; wall median %.4g, range %.4g-%.4g",
		len(ops), minOf(cpu), maxOf(cpu), median(wall), minOf(wall), maxOf(wall))
	rep.set("alloc_mb", median(alloc), "MB/op")
	rep.note("alloc_mb", "median of %d ops", len(ops))
	rep.set("goodput_frac", float64(good)/float64(units), "fraction")
	rep.note("goodput_frac", "%d of %d", good, units)
	rep.set("sim_speedup", last.sim["sim_speedup"], "x")
	rep.set("sim_speedup_contended", last.sim["sim_speedup_contended"], "x")
	rep.set("sim_p50_s", last.sim["sim_p50_s"], "s")
	rep.set("sim_p99_s", last.sim["sim_p99_s"], "s")
	for name, n := range last.notes {
		rep.note(name, "%s", n)
	}
}

// layers are the spanned layers, in report order.
var layers = []string{"platform", "parser", "analysis", "profile", "plan", "interp", "exec", "driver", "obs"}

// allocLayers are the layers whose allocation is reported.
var allocLayers = map[string]bool{"platform": true, "profile": true, "plan": true, "interp": true, "driver": true, "obs": true}

// countMetrics are the simulated per-layer figures, with their units.
var countMetrics = []struct{ name, unit string }{
	{"platform.calls", "count/op"},
	{"profile.sample_runs", "count/op"},
	{"plan.free_lines", "count/op"},
	{"plan.bnb_nodes", "count/op"},
	{"plan.csd_lines", "count/op"},
	{"interp.records", "count/op"},
	{"exec.migrations", "count/op"},
	{"exec.d2h_mb", "MB/op"},
	{"sim.events", "count/op"},
	{"driver.offered", "count/op"},
	{"driver.completed", "count/op"},
	{"driver.queued", "count/op"},
	{"driver.shed", "count/op"},
	{"driver.failed", "count/op"},
	{"driver.wait_mean_s", "s"},
	{"driver.service_mean_s", "s"},
	{"machine.cse_util", "fraction"},
	{"machine.d2h_util", "fraction"},
	{"machine.nvme_submitted", "count/op"},
	{"machine.flash_reads", "count/op"},
	{"exec.retries", "count/op"},
	{"exec.timeouts", "count/op"},
	{"exec.failed_calls", "count/op"},
	{"exec.breaker_opens", "count/op"},
	{"exec.degraded_lines", "count/op"},
	{"exec.deadline_misses", "count/op"},
	{"obs.windows", "count/op"},
	{"obs.stale_lines", "count/op"},
}

// perLayer fills in the per-layer metrics: span self times and
// allocations (medians over traced ops), the simulated counts, the
// interleaved untraced ops' wall time, and the tracing overhead.
func perLayer(rep *report, tr *tracer, ops []timedOp, last *outcome) {
	self := map[string][]float64{}
	alloc := map[string][]float64{}
	var tracedWall, tracedCPU, plainWall, plainCPU, gcs, nsPerEvent []float64
	events := last.counts.vals["sim.events"]
	for _, o := range ops {
		if !o.traced {
			plainWall = append(plainWall, o.cost.wall)
			plainCPU = append(plainCPU, o.cost.cpu)
			continue
		}
		tracedWall = append(tracedWall, o.cost.wall)
		tracedCPU = append(tracedCPU, o.cost.cpu)
		gcs = append(gcs, o.cost.gcs)
		costs := tr.selfCosts(o.op)
		for _, l := range append([]string{"op"}, layers...) {
			self[l] = append(self[l], costs[l].wall)
			alloc[l] = append(alloc[l], costs[l].allocMB)
		}
		if events > 0 {
			nsPerEvent = append(nsPerEvent, (costs["exec"].wall+costs["driver"].wall)/events*1e9)
		}
	}
	n := len(tracedWall)
	rep.set("wall_s", median(plainWall), "s/op")
	rep.note("wall_s", "median of the %d untraced ops, range %.4g-%.4g", len(plainWall), minOf(plainWall), maxOf(plainWall))
	for _, l := range layers {
		rep.set(l+".wall_s", median(self[l]), "s/op")
		rep.note(l+".wall_s", "self time, median of %d traced ops", n)
		if allocLayers[l] {
			rep.set(l+".alloc_mb", median(alloc[l]), "MB/op")
		}
	}
	for _, m := range countMetrics {
		rep.set(m.name, last.counts.vals[m.name], m.unit)
	}
	rep.set("sim.ns_per_event", median(nsPerEvent), "ns/event")
	rep.note("sim.ns_per_event", "exec and driver self time per simulated event")
	rep.set("host.gc_cycles", median(gcs), "count/op")
	rep.set("op.unattributed_s", median(self["op"]), "s/op")
	rep.note("op.unattributed_s", "op time outside every layer span")
	rep.set("trace.overhead_wall_s", median(tracedWall)-median(plainWall), "s/op")
	rep.note("trace.overhead_wall_s", "traced minus untraced median, %d and %d ops", n, len(plainWall))
	rep.set("trace.overhead_cpu_s", median(tracedCPU)-median(plainCPU), "s/op")
}

// checkDigest compares the run's simulated digest with the one an
// earlier run of the same build, workload, seed and length left in
// outdir, and leaves one when there is none: a mismatch is a simulator
// bug. Keying by the executable's hash lets a rebuilt program simulate
// differently on purpose without tripping the check.
func checkDigest(cfg config, d string) error {
	if cfg.outdir == "" {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := fmt.Sprintf("%x\n", sha256.Sum256([]byte(d)))
	path := filepath.Join(cfg.outdir, fmt.Sprintf("digest-%.16x-%s-%d-smoke%v.txt",
		sha256.Sum256(bin), cfg.name, cfg.seed, cfg.smoke))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil && string(prev) != sum:
		return fmt.Errorf("determinism: seed %d simulated a different run than an earlier run did (%s)", cfg.seed, path)
	case err == nil:
		return nil
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(sum), 0o644)
	}
	return err
}
