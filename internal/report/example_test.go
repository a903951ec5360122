package report_test

import (
	"fmt"

	"activego/internal/report"
)

// ExampleTable builds and renders a small results table. Note the
// formatted float cell and that no line carries trailing whitespace.
func ExampleTable() {
	tbl := report.NewTable("Speedup vs baseline", "workload", "speedup")
	tbl.AddRow("tpch-6", "1.412x")
	tbl.AddRowf("grep", 1.173)
	fmt.Print(tbl.String())
	// Output:
	// Speedup vs baseline
	// workload  speedup
	// --------  -------
	// tpch-6    1.412x
	// grep      1.173
}
