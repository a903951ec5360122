package experiments

import (
	"fmt"

	"activego/internal/codegen"
	"activego/internal/report"
	"activego/internal/workloads"
)

// RuntimeOptRow is one workload's runtime-optimization ladder, all
// configurations host-only (no ISP), as percentage slowdown vs the C
// baseline.
type RuntimeOptRow struct {
	Workload    string
	Interpreted float64 // plain interpreter (paper avg: 41%)
	Cython      float64 // compiled, copies kept (paper avg: 20%)
	Native      float64 // ActivePy codegen + copy elimination (paper: ~1%)
}

// RuntimeOptResult is the ladder across workloads.
type RuntimeOptResult struct {
	Rows                               []RuntimeOptRow
	MeanInterp, MeanCython, MeanNative float64
}

// RuntimeOpt regenerates the §V "optimizations in its language runtime"
// study: the same programs run host-only under the interpreter, under
// Cython-style compilation, and under ActivePy's native codegen with
// redundant-memcopy elimination. The paper's ladder is 41% → 20% → ≈0%
// (+1% compile overhead) slower than hand-written C; the reproduction
// target is that ordering and rough spacing.
func RuntimeOpt(params workloads.Params, opts ...Option) (*RuntimeOptResult, *report.Table, error) {
	rows, err := overPrograms(params, buildOptions(opts), tableIPrograms, func(wb *Workbench) (RuntimeOptRow, error) {
		spec := wb.Spec
		slow := func(b codegen.Backend) (float64, error) {
			run, err := wb.RunBackend(b)
			if err != nil {
				return 0, fmt.Errorf("experiments: runtimeopt: %s/%s: %w", spec.Name, b.Name, err)
			}
			return run.Duration/wb.Baseline - 1, nil
		}
		interp, err := slow(codegen.Interpreted)
		if err != nil {
			return RuntimeOptRow{}, err
		}
		cython, err := slow(codegen.Cython)
		if err != nil {
			return RuntimeOptRow{}, err
		}
		native, err := slow(codegen.Native)
		if err != nil {
			return RuntimeOptRow{}, err
		}
		return RuntimeOptRow{Workload: spec.Name, Interpreted: interp, Cython: cython, Native: native}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res := &RuntimeOptResult{}
	tbl := report.NewTable("§V runtime optimization ladder: slowdown vs C baseline (host only)",
		"workload", "interpreted", "cython", "activepy-native")
	var si, sc, sn float64
	for _, row := range rows {
		res.Rows = append(res.Rows, row)
		si += row.Interpreted
		sc += row.Cython
		sn += row.Native
		tbl.AddRow(row.Workload,
			fmt.Sprintf("%.1f%%", row.Interpreted*100),
			fmt.Sprintf("%.1f%%", row.Cython*100),
			fmt.Sprintf("%.1f%%", row.Native*100))
	}
	n := float64(len(res.Rows))
	res.MeanInterp, res.MeanCython, res.MeanNative = si/n, sc/n, sn/n
	tbl.AddRow("MEAN",
		fmt.Sprintf("%.1f%%", res.MeanInterp*100),
		fmt.Sprintf("%.1f%%", res.MeanCython*100),
		fmt.Sprintf("%.1f%%", res.MeanNative*100))
	return res, tbl, nil
}
