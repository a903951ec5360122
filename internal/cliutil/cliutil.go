// Package cliutil is the one place the commands' shared flag surface is
// wired. Register installs the five output sinks every command honours
// (-trace, -tracesummary, -pprof, -memprofile, -metrics), so
// cmd/activego, cmd/csdsim, and cmd/benchsuite get identical flag names,
// help text, and output behavior for them. The flags only some commands
// read are opt-in, one call each: RegisterJobs (-j), RegisterPlanner
// (-planner), RegisterObsWindow (-obswindow), and RegisterServing
// (-tenants/-arrival/-qps/-duration). A command therefore accepts
// exactly the flags it reads. Each sink is written once, after the
// command's work is done; nothing is served while it runs.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	runpprof "runtime/pprof"

	"activego/internal/driver"
	"activego/internal/experiments"
	"activego/internal/metrics"
	"activego/internal/par"
	"activego/internal/plan"
	"activego/internal/trace"
)

// Flags is the parsed shared observability surface of one command.
type Flags struct {
	Trace        string  // -trace: Chrome trace-event JSON path
	TraceSummary bool    // -tracesummary: per-component summary on stdout
	CPUProfile   string  // -pprof: CPU profile path
	MemProfile   string  // -memprofile: heap profile path, written on Finish
	Metrics      string  // -metrics: registry snapshot JSON path ("-" = stdout)
	Jobs         int     // -j: worker count for deterministic fan-outs (RegisterJobs)
	ObsWindow    float64 // -obswindow: sim-time observation window (RegisterObsWindow); 0 = off
	Planner      string  // -planner: planning algorithm (RegisterPlanner); "" = bnb

	rec     *trace.Recorder
	reg     *metrics.Registry
	cpuFile *os.File
}

// Register installs the five output sinks on fs and returns the handle
// the main will read after fs.Parse.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{Jobs: 1}
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON timeline of the run to this file (open in Perfetto / chrome://tracing)")
	fs.BoolVar(&f.TraceSummary, "tracesummary", false, "print a per-component utilization and latency summary of the run")
	fs.StringVar(&f.CPUProfile, "pprof", "", "write a CPU profile of this process to the file (inspect with go tool pprof)")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile of this process to the file on exit")
	fs.StringVar(&f.Metrics, "metrics", "", "write the metrics registry snapshot as JSON to this file (- for stdout)")
	return f
}

// RegisterJobs additionally installs -j, read through Pool.
func (f *Flags) RegisterJobs(fs *flag.FlagSet) {
	fs.IntVar(&f.Jobs, "j", 1, "workers for deterministic fan-outs (sampling scales, experiment sweeps); 1 = serial, 0 = GOMAXPROCS; output is bit-identical at any value")
}

// RegisterPlanner additionally installs -planner.
func (f *Flags) RegisterPlanner(fs *flag.FlagSet) {
	fs.StringVar(&f.Planner, "planner", "", "planning algorithm: "+plan.PlannerChoices+" (DESIGN.md §16); empty = bnb, the exact planner")
}

// RegisterObsWindow additionally installs -obswindow.
func (f *Flags) RegisterObsWindow(fs *flag.FlagSet) {
	fs.Float64Var(&f.ObsWindow, "obswindow", 0, "bin observed per-line costs (under -serve, each tenant's request latencies) into simulated-time windows of this many seconds and fold them into the metrics snapshot as obs.win.* series (DESIGN.md §15); 0 = off")
}

// Pool returns the par.Pool the -j flag asked for: nil when -j 1 (the
// default, and always without RegisterJobs), which every fan-out treats
// as the inline serial path with zero extra goroutines. Each simulated
// run stays single-goroutine on its own kernel regardless; -j only fans
// out independent runs, and results are assembled in input order so
// output is bit-identical at any -j.
func (f *Flags) Pool() *par.Pool {
	if f.Jobs == 1 {
		return nil
	}
	return par.New(f.Jobs)
}

// RegisterServing installs the multi-tenant serving driver's flags
// (DESIGN.md §14) on fs: the same -tenants/-arrival/-qps/-duration knobs
// in every command that can drive traffic, parsed into the overrides
// that experiments.ServingTraffic applies to the command's own tenant
// templates. Zero values mean "use the defaults", so committed
// baselines are unaffected by the flags' existence.
func RegisterServing(fs *flag.FlagSet) *experiments.ServingOverrides {
	s := &experiments.ServingOverrides{}
	fs.IntVar(&s.Tenants, "tenants", 0, "serving: number of tenants, cycling the command's tenant templates (0 = the command's default population)")
	fs.StringVar(&s.Arrival, "arrival", "", "serving: force every tenant's arrival process (poisson, bursty, uniform, closed; empty = per-tenant defaults)")
	fs.Float64Var(&s.QPS, "qps", 0, "serving: total offered rate at load 1.0 in requests per simulated second (0 = calibrate from solo service times)")
	fs.Float64Var(&s.Duration, "duration", 0, "serving: arrival horizon in simulated seconds (0 = derive from the request target)")
	return s
}

// PrintServing writes a serving run's per-tenant table and its makespan
// and fairness line to out.
func PrintServing(out io.Writer, res *driver.Result) {
	fmt.Fprintf(out, "%-10s %8s %8s %6s %6s %9s %9s %9s\n",
		"tenant", "offered", "done", "fail", "shed", "p50", "p95", "p99")
	for _, tr := range res.Tenants {
		fmt.Fprintf(out, "%-10s %8d %8d %6d %6d %8.4fs %8.4fs %8.4fs\n",
			tr.Name, tr.Offered, tr.Completed, tr.Failed, tr.Shed, tr.P50, tr.P95, tr.P99)
	}
	fmt.Fprintf(out, "makespan %.4fs, fairness %.3f (Jain over completed/offered)\n",
		res.Makespan, res.Fairness)
}

// WantTrace reports whether either trace output was requested.
func (f *Flags) WantTrace() bool { return f.Trace != "" || f.TraceSummary }

// WantMetrics reports whether a metrics registry is needed.
func (f *Flags) WantMetrics() bool { return f.Metrics != "" }

// Recorder returns the command's trace recorder, created on first call.
// It is non-nil when tracing was requested, and also when metrics were:
// Finish folds the recording into the registry (Recorder.Fold), and
// attaching a recorder never perturbs the simulation (the zero-overhead
// contract), so -metrics implies recording. Nil otherwise.
func (f *Flags) Recorder() *trace.Recorder {
	if f.rec == nil && (f.WantTrace() || f.WantMetrics()) {
		f.rec = trace.New()
	}
	return f.rec
}

// Registry returns the command's metrics registry, created on first
// call when -metrics asked for one; nil otherwise, which every
// instrumented layer treats as "record nothing".
func (f *Flags) Registry() *metrics.Registry {
	if f.reg == nil && f.WantMetrics() {
		f.reg = metrics.New()
	}
	return f.reg
}

// Start begins CPU profiling if -pprof was given. Call Finish before
// exiting on every path that reached Start.
func (f *Flags) Start() error {
	if f.CPUProfile == "" {
		return nil
	}
	file, err := os.Create(f.CPUProfile)
	if err != nil {
		return err
	}
	if err := runpprof.StartCPUProfile(file); err != nil {
		file.Close()
		return err
	}
	f.cpuFile = file
	return nil
}

// Finish flushes every requested output: stops the CPU profile, writes
// the heap profile, exports the trace (file and/or summary), folds the
// recorder into the registry, and writes the metrics snapshot. Progress
// lines ("trace: wrote ...") go to out.
func (f *Flags) Finish(out io.Writer) error {
	if f.cpuFile != nil {
		runpprof.StopCPUProfile()
		if err := f.cpuFile.Close(); err != nil {
			return err
		}
		f.cpuFile = nil
		fmt.Fprintf(out, "pprof: wrote %s (inspect with go tool pprof)\n", f.CPUProfile)
	}
	if f.MemProfile != "" {
		if err := writeHeapProfile(f.MemProfile); err != nil {
			return err
		}
		fmt.Fprintf(out, "memprofile: wrote %s\n", f.MemProfile)
	}
	if err := f.ExportTrace(out, f.rec); err != nil {
		return err
	}
	if f.reg != nil {
		f.rec.Fold(f.reg)
		if f.Metrics == "-" {
			return f.reg.Snapshot().WriteJSON(out)
		}
		if f.Metrics != "" {
			snap := f.reg.Snapshot()
			if err := writeFileWith(f.Metrics, snap.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(out, "metrics: wrote %s\n", f.Metrics)
		}
	}
	return nil
}

// ExportTrace writes rec as the -trace Chrome JSON file and prints the
// -tracesummary summary to out. With neither flag, or a nil rec, it
// does nothing. Finish exports the command's own recorder through it;
// a command whose trace comes from elsewhere passes that recording.
func (f *Flags) ExportTrace(out io.Writer, rec *trace.Recorder) error {
	if rec == nil {
		return nil
	}
	if f.Trace != "" {
		if err := writeFileWith(f.Trace, rec.WriteChrome); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: wrote %s (open in Perfetto or chrome://tracing)\n", f.Trace)
	}
	if f.TraceSummary {
		fmt.Fprintf(out, "\n%s", rec.Summary())
	}
	return nil
}

func writeHeapProfile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	err = runpprof.Lookup("heap").WriteTo(file, 0)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeFileWith(path string, write func(io.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(file)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}
