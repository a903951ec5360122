package experiments

import (
	"fmt"

	"activego/internal/exec"
	"activego/internal/fault"
	"activego/internal/nvme"
	"activego/internal/platform"
	"activego/internal/report"
	"activego/internal/resilience"
	"activego/internal/workloads"
)

// RobustnessRates is the per-roll injection intensity axis of the
// robustness sweep: 0 is the control (the fault machinery armed but
// idle — must reproduce the clean numbers exactly), the rest stress the
// recovery stack hard enough that retries, timeouts, and occasionally a
// host failover all appear.
var RobustnessRates = []float64{0, 0.1, 0.3}

// RobustnessWorkloads keeps the sweep to the three TPC-H queries; the
// recovery machinery is workload-agnostic (it lives under the call
// queue), so the fault axis, not the application axis, carries the
// information.
var RobustnessWorkloads = []string{"tpch-1", "tpch-6", "tpch-14"}

var robustnessPrograms = Programs{Names: RobustnessWorkloads}

// RobustnessSeed seeds every fault plan in the sweep; with the rules
// fixed, one seed makes the whole table bit-reproducible.
const RobustnessSeed uint64 = 1

// RobustnessRow is one (workload, rate) cell.
type RobustnessRow struct {
	Workload    string
	Rate        float64
	Duration    float64
	Overhead    float64 // fractional duration increase vs this workload's zero-fault run
	FailedCalls uint64
	Retries     uint64
	Timeouts    uint64
	FailedOver  bool   // recovery moved the remaining partition to the host
	Completed   bool   // the program finished (recovery absorbed every fault)
	Planner     string // the planner behind the plan under test
}

// RobustnessResult is the full sweep.
type RobustnessResult struct {
	Rows []RobustnessRow
}

// robustnessPlan builds the fault plan for one intensity: completion
// drops and command losses exercise the NVMe supervision, transient
// flash errors stretch reads, and a bounded trickle of uncorrectable
// errors forces real line failures without making the host path — the
// unit of last resort — permanently unusable.
func robustnessPlan(seed uint64, rate float64) *fault.Plan {
	if rate <= 0 {
		// Armed-but-idle control: rules present, probability zero. The
		// acceptance bar is that this reproduces the bare run exactly.
		return fault.NewPlan(seed,
			fault.Rule{Point: fault.NVMeCompletionDrop, Rate: 0},
			fault.Rule{Point: fault.FlashTransient, Rate: 0},
		)
	}
	return fault.NewPlan(seed,
		fault.Rule{Point: fault.NVMeCompletionDrop, Rate: rate},
		fault.Rule{Point: fault.NVMeCommandLoss, Rate: rate / 2},
		fault.Rule{Point: fault.FlashTransient, Rate: rate},
		fault.Rule{Point: fault.FlashUncorrectable, Rate: rate / 10, MaxCount: 2},
	)
}

// adaptiveRetry derives the host's command supervision from the plan's
// own line estimates: the completion timer must not fire on a healthy
// command, so it sits at 4x the costliest offloaded line (per exec) plus
// a queue-latency floor. This is the runtime using the knowledge it
// already has (§III-A estimates) to configure its failure detector.
func (wb *Workbench) adaptiveRetry() nvme.RetryPolicy {
	return nvme.RetryPolicy{Timeout: 4*wb.worstLine() + 10e-3, MaxAttempts: 4, Backoff: 1e-3}
}

// RunRobust executes the ActivePy configuration with the fault plan
// installed and the recovery stack armed: NVMe command retry under the
// adaptive policy, line re-posting, and one-shot host failover
// (resilience.OneShot). Migration is off so the failure-driven path,
// not the contention monitor, owns every recovery decision.
func (wb *Workbench) RunRobust(plan *fault.Plan) (*exec.Result, error) {
	p := platform.Default()
	p.InstallFaults(plan, wb.adaptiveRetry())
	pol := resilience.OneShot()
	cfg := wb.config()
	cfg.Resilience = &pol
	return wb.runActivePy(p, cfg)
}

// Robustness sweeps fault intensity against the TPC-H workloads: each
// cell runs the full ActivePy configuration on a freshly faulted
// platform and reports how much recovery cost and whether the program
// still finished. The zero-rate column doubles as the cost-free-when-idle
// check: its durations must equal the clean runs bit-for-bit.
func Robustness(params workloads.Params, opts ...Option) (*RobustnessResult, *report.Table, error) {
	perSpec, err := overPrograms(params, buildOptions(opts), robustnessPrograms, func(wb *Workbench) ([]RobustnessRow, error) {
		name := wb.Spec.Name
		var rows []RobustnessRow
		var clean float64
		for _, rate := range RobustnessRates {
			row := RobustnessRow{Workload: name, Rate: rate, Planner: wb.Plan.Planner}
			r, err := wb.RunRobust(robustnessPlan(RobustnessSeed, rate))
			if err == nil {
				row.Completed = true
				row.Duration = r.Duration
				row.FailedCalls = r.FailedCalls
				row.Retries = r.Retries
				row.Timeouts = r.Timeouts
				row.FailedOver = r.BreakerOpens > 0
				if rate == 0 {
					clean = r.Duration
				}
				if clean > 0 {
					row.Overhead = r.Duration/clean - 1
				}
			} else if rate == 0 {
				// The control must never fail; that is a harness bug.
				return nil, fmt.Errorf("experiments: robustness: %s control: %w", name, err)
			}
			rows = append(rows, row)
		}
		return rows, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res := &RobustnessResult{}
	tbl := report.NewTable("Robustness: recovery under injected faults",
		"workload", "rate", "duration", "overhead", "failed calls", "retries", "timeouts", "failed over", "completed")
	for _, rows := range perSpec {
		for _, row := range rows {
			res.Rows = append(res.Rows, row)
			tbl.AddRow(row.Workload, fmt.Sprintf("%.2f", row.Rate),
				fmt.Sprintf("%.4fs", row.Duration),
				fmt.Sprintf("%+.1f%%", row.Overhead*100),
				fmt.Sprintf("%d", row.FailedCalls),
				fmt.Sprintf("%d", row.Retries),
				fmt.Sprintf("%d", row.Timeouts),
				fmt.Sprintf("%v", row.FailedOver),
				fmt.Sprintf("%v", row.Completed))
		}
	}
	return res, tbl, nil
}
