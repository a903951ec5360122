package cliutil

import (
	"fmt"
	"io"

	"activego/internal/core"
	"activego/internal/obs"
	"activego/internal/platform"
	"activego/internal/profile"
	"activego/internal/workloads"
)

// ExplainOptions parameterize one plan-provenance rendering.
type ExplainOptions struct {
	Workload string
	ScaleDiv int64
	Seed     int64
	JSON     bool // indented JSON instead of the table
	// Run additionally executes the workload under windowed observation
	// and cross-links the drift columns; Window is the observation
	// window in simulated seconds (0 derives 1/16 of the projected
	// runtime).
	Run    bool
	Window float64
	// Planner forces the planning algorithm (core.PlannerChoices; ""
	// = auto).
	Planner string
}

// Explain renders a workload's plan provenance — the per-line Equation 1
// terms, pin/prune verdicts, and projected-vs-all-host totals the
// placement was argued from (DESIGN.md §15) — to out, as a table or
// JSON. `activego explain` renders through it.
func Explain(out io.Writer, o ExplainOptions) error {
	spec, ok := workloads.ByName(o.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.Workload)
	}
	params := workloads.Params{ScaleDiv: o.ScaleDiv, Seed: o.Seed}
	inst := spec.Build(params)
	rt := core.New(platform.Default())
	rt.SampleScales = profile.ScaledScales
	rt.Planner = o.Planner
	rt.PreloadInputs(inst.Registry)

	_, _, planRes, err := rt.Analyze(inst.Source, inst.Registry)
	if err != nil {
		return err
	}
	ex := obs.Explain{Provenance: planRes.Provenance}
	if o.Run {
		w := o.Window
		if w <= 0 {
			w = planRes.TCSD / 16
		}
		cfg := core.DefaultConfig()
		cfg.OverheadScale = params.OverheadScale()
		cfg.ObsWindow = w
		res, err := rt.Run(inst.Source, inst.Registry, cfg)
		if err != nil {
			return err
		}
		ex.Provenance = res.Plan.Provenance
		ex.Drift = res.Drift
	}
	if o.JSON {
		return ex.WriteJSON(out)
	}
	_, err = fmt.Fprint(out, ex.Table().String())
	return err
}
