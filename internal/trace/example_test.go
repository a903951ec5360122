package trace_test

import (
	"fmt"
	"io"

	"activego/internal/metrics"
	"activego/internal/trace"
)

// Example records a tiny two-component timeline and exports it both
// ways: Chrome trace-event JSON for Perfetto and the text summary.
func Example() {
	rec := trace.New()
	rec.Span("cse", "compute", "job", 0.000, 0.002)
	rec.Span("nvme", "nvme", "read", 0.0005, 0.0015, trace.Arg{Key: "status", Value: 0})
	rec.Sample(metrics.SeriesCSEBusyCores, 0.000, 1)
	rec.Sample(metrics.SeriesCSEBusyCores, 0.002, 0)

	min, max, _ := rec.Window()
	fmt.Printf("window: %.0f..%.0f us\n", min*1e6, max*1e6)
	for _, st := range rec.ComponentStats() {
		fmt.Printf("%s: %.0f%% busy\n", st.Component, st.Utilization*100)
	}
	// Writing to a file instead of io.Discard yields a Perfetto-loadable
	// timeline.
	if err := rec.WriteChrome(io.Discard); err == nil {
		fmt.Println("chrome export: ok")
	}
	// Output:
	// window: 0..2000 us
	// cse: 100% busy
	// nvme: 50% busy
	// chrome export: ok
}
