package driver

import (
	"fmt"
	"math"

	"activego/internal/codegen"
	"activego/internal/core"
	"activego/internal/lang/interp"
	"activego/internal/lang/value"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/profile"
	"activego/internal/workloads"
)

// Scenario is one servable unit of work: a fully prepared program — the
// full-scale value trace, the planner's partition, and its per-line
// estimates — ready to replay against a platform as one request. The
// expensive pipeline (sampling, curve fits, planning, tracing) ran once
// at construction; requests replay warm (exec.Options.Warm), paying
// storage, compute, and link time but not the cold setup the scenario
// already paid.
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
// full-scale trace, correctness check) runs once, and the scenario
// keeps the artifacts a request replays.
func Build(name string, params workloads.Params) (*Scenario, error) {
	spec, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("driver: no workload %q", name)
	}
	inst := spec.Build(params)
	rt := core.New(platform.Default())
	rt.SampleScales = profile.ScaledScales
	rt.PreloadInputs(inst.Registry)
	prog, _, planRes, err := rt.Analyze(inst.Source, inst.Registry)
	if err != nil {
		return nil, fmt.Errorf("driver: %s: analyze: %w", spec.Name, err)
	}
	tr, env, err := interp.Run(prog, inst.Registry.Context(1))
	if err != nil {
		return nil, fmt.Errorf("driver: %s: trace: %w", spec.Name, err)
	}
	if err := inst.Check(env); err != nil {
		return nil, fmt.Errorf("driver: %s: correctness: %w", spec.Name, err)
	}
	return &Scenario{
		Name:          spec.Name,
		Trace:         tr,
		Partition:     planRes.Partition,
		Estimates:     planRes.ByLine(),
		Backend:       codegen.Native,
		OverheadScale: params.OverheadScale(),
		Provenance:    planRes.Provenance,
	}, nil
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
