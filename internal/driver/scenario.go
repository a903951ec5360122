package driver

import (
	"fmt"
	"math"

	"activego/internal/codegen"
	"activego/internal/core"
	"activego/internal/exec"
	"activego/internal/lang/interp"
	"activego/internal/lang/value"
	"activego/internal/plan"
	"activego/internal/workloads"
)

// Scenario is one servable unit of work: a view of a prepared program
// (core.Prepared) — the full-scale value trace, the planner's partition,
// and its per-line estimates — ready to replay against a platform as one
// request. The expensive pipeline (sampling, curve fits, planning,
// tracing) ran once when the program was prepared; requests replay warm
// (ReplayOptions), paying storage, compute, and link time but not the
// cold setup the program already paid.
type Scenario struct {
	Name      string
	Trace     *interp.Trace
	Partition codegen.Partition
	Estimates map[int]*plan.LineEstimate
	Backend   codegen.Backend
	// OverheadScale forwards the workload's scale factor into exec so
	// migration regeneration costs stay proportioned to the scaled runs.
	OverheadScale float64
	// Provenance is the plan-time decision record captured when the
	// scenario was constructed through the real pipeline (nil for
	// Synthetic scenarios, which never ran a planner). `activego explain`
	// and the drift study read it to cross-link observed costs back to
	// the Equation 1 terms the placement was argued from.
	Provenance *plan.Provenance
}

// Build constructs the named workload as a scenario at the given scale:
// the real ActivePy pipeline (sampling on a scratch platform, planning,
// full-scale trace, correctness check) runs once through core.Prepare,
// and the scenario views the artifacts a request replays.
func Build(name string, params workloads.Params) (*Scenario, error) {
	spec, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("driver: no workload %q", name)
	}
	inst := spec.Build(params)
	pr, err := core.ForWorkload(inst).Prepare(inst)
	if err != nil {
		return nil, fmt.Errorf("driver: %s: %w", spec.Name, err)
	}
	return NewScenario(spec.Name, pr, params.OverheadScale()), nil
}

// NewScenario views the prepared program pr as a scenario called name,
// replayed at overheadScale. The scenario shares pr's trace and estimate
// map; neither is written by a replay.
func NewScenario(name string, pr *core.Prepared, overheadScale float64) *Scenario {
	return &Scenario{
		Name:          name,
		Trace:         pr.Trace,
		Partition:     pr.Plan.Partition,
		Estimates:     pr.Estimates,
		Backend:       codegen.Native,
		OverheadScale: overheadScale,
		Provenance:    pr.Plan.Provenance,
	}
}

// ReplayOptions are the executor options of one warm replay of sc: its
// partition, backend, stored estimate map, and overhead scale, through
// the call queue, with the one-time overheads skipped. Every warm replay
// — each served request and each solo calibration run — builds its
// options here; the caller adds the per-run observers and policy
// (Metrics, Obs, Resilience).
func (sc *Scenario) ReplayOptions() exec.Options {
	return exec.Options{
		Backend:       sc.Backend,
		Partition:     sc.Partition,
		Estimates:     sc.Estimates,
		OverheadScale: sc.OverheadScale,
		Warm:          true,
	}
}

// SetPlanCache does nothing: a scenario is built once and replayed, so
// there is no repeat pipeline run to memoize.
//
// Deprecated: drop the call. SetPlanCache remains only because
// perfbench/serve.go still calls it.
func SetPlanCache(any) {}

// Synthetic fabricates a scenario without the language pipeline: lines
// alternating CSD kernel work (odd lines, offloaded) and host glue (even
// lines), each moving bytes through storage and the link. Unit tests,
// examples, and csdsim's device-level serving mode use it — cheap to
// build, deterministic to replay, and exercising the same queue-pair and
// resource paths as a compiled workload.
func Synthetic(name string, lines int, work float64, bytes int64) *Scenario {
	if lines < 1 {
		lines = 1
	}
	tr := &interp.Trace{}
	var csdLines []int
	for i := 0; i < lines; i++ {
		line := i + 1
		rec := interp.LineRecord{
			Line: line,
			Cost: value.Cost{KernelWork: work, GlueWork: work / 16, StorageBytes: bytes},
			Writes: []interp.VarUse{
				{Name: fmt.Sprintf("v%d", line), Bytes: bytes / 4},
			},
		}
		if line > 1 {
			rec.Reads = []interp.VarUse{{Name: fmt.Sprintf("v%d", line-1), Bytes: bytes / 4}}
		}
		tr.Records = append(tr.Records, rec)
		if line%2 == 1 {
			csdLines = append(csdLines, line)
		}
	}
	return &Scenario{
		Name:      name,
		Trace:     tr,
		Partition: codegen.NewPartition(csdLines...),
		Backend:   codegen.Native,
	}
}

// Weighted names a workload and its share of a traffic mix.
type Weighted struct {
	Name   string
	Weight float64
}

// MixEntry pairs a built scenario with its weight inside a Mix.
type MixEntry struct {
	Scenario *Scenario
	Weight   float64
}

// Mix is a weighted scenario chooser — the yabf/pebble-bench pattern: a
// request stream picks its next operation by weighted random draw over
// its entries. Pick is pure (uniform in, scenario out), so the choice
// sequence is owned entirely by the caller's seeded stream.
type Mix struct {
	entries []MixEntry
	total   float64
}

// NewMix builds a mix from already-constructed scenarios.
func NewMix(entries ...MixEntry) (*Mix, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("driver: empty mix")
	}
	m := &Mix{entries: entries}
	for _, e := range entries {
		if e.Scenario == nil {
			return nil, fmt.Errorf("driver: mix entry with nil scenario")
		}
		if e.Weight <= 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return nil, fmt.Errorf("driver: mix weight %v for %q out of range", e.Weight, e.Scenario.Name)
		}
		m.total += e.Weight
	}
	return m, nil
}

// Pick maps a uniform draw u in [0,1) to a scenario by cumulative
// weight. Out-of-range draws clamp to the ends.
func (m *Mix) Pick(u float64) *Scenario {
	target := u * m.total
	for _, e := range m.entries {
		if target < e.Weight {
			return e.Scenario
		}
		target -= e.Weight
	}
	return m.entries[len(m.entries)-1].Scenario
}
