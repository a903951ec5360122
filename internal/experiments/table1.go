package experiments

import (
	"fmt"

	"activego/internal/report"
	"activego/internal/workloads"
)

// Table1Row is one application of Table I.
type Table1Row struct {
	Name        string
	PaperBytes  int64
	ScaledBytes int64
	Regions     int // single-entry-single-exit code regions (source lines)
	Description string
}

// Table1Rows is Table I, one row per application in catalog order.
type Table1Rows []Table1Row

// Table1 regenerates the paper's Table I: the application catalog with
// input data sizes and their single-entry-single-exit code regions, plus
// the scaled sizes this reproduction actually runs.
func Table1(params workloads.Params, opts ...Option) (Table1Rows, *report.Table, error) {
	rows, err := overPrograms(params, buildOptions(opts), tableIPrograms, func(wb *Workbench) (Table1Row, error) {
		return Table1Row{
			Name:        wb.Spec.Name,
			PaperBytes:  wb.Spec.PaperBytes,
			ScaledBytes: wb.Inst.Registry.TotalBytes(),
			Regions:     wb.Program.MaxLine(),
			Description: wb.Spec.Description,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	tbl := report.NewTable("Table I: applications, input sizes, SESE code regions",
		"name", "paper size", "scaled size", "regions", "description")
	for _, row := range rows {
		tbl.AddRow(row.Name, fmtGB(row.PaperBytes), fmtMB(row.ScaledBytes),
			fmt.Sprintf("%d", row.Regions), row.Description)
	}
	return rows, tbl, nil
}

func fmtGB(b int64) string { return fmt.Sprintf("%.1f GB", float64(b)/(1<<30)) }
func fmtMB(b int64) string { return fmt.Sprintf("%.1f MB", float64(b)/(1<<20)) }
