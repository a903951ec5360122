package experiments

import (
	"fmt"

	"activego/internal/lang/parser"
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
	tbl := report.NewTable("Table I: applications, input sizes, SESE code regions",
		"name", "paper size", "scaled size", "regions", "description")
	var rows Table1Rows
	for _, spec := range workloads.TableI() {
		inst := spec.Build(params)
		prog, err := parser.Parse(inst.Source)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: table1: %s: %w", spec.Name, err)
		}
		regions := prog.MaxLine()
		row := Table1Row{
			Name:        spec.Name,
			PaperBytes:  spec.PaperBytes,
			ScaledBytes: inst.Registry.TotalBytes(),
			Regions:     regions,
			Description: spec.Description,
		}
		rows = append(rows, row)
		tbl.AddRow(spec.Name, fmtGB(spec.PaperBytes), fmtMB(row.ScaledBytes),
			fmt.Sprintf("%d", regions), spec.Description)
	}
	return rows, tbl, nil
}

func fmtGB(b int64) string { return fmt.Sprintf("%.1f GB", float64(b)/(1<<30)) }
func fmtMB(b int64) string { return fmt.Sprintf("%.1f MB", float64(b)/(1<<20)) }
