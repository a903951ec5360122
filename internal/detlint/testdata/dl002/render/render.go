// Package render is a detlint fixture: output and metric sinks, and the
// simulator's event calendar, driven from a range over a map, whose
// iteration order the runtime randomizes. DL002 must fire on the fmt
// call, the sink method calls, and the event cancel and rebook.
package render

import (
	"fmt"

	"activego/internal/metrics"
	"activego/internal/sim"
)

// Dump emits one line and one counter bump per map entry — in a
// different order every run.
func Dump(rows map[string]int, reg *metrics.Registry) {
	for name, n := range rows {
		fmt.Printf("%s: %d\n", name, n)
		reg.Counter(metrics.MetricExecRuns).Add(float64(n))
	}
}

// Reschedule cancels and rebooks one completion per map entry. Events
// at equal times fire in booking order, so tied completions fire in a
// different order every run.
func Reschedule(s *sim.Sim, pending map[*sim.Event]func(), delay float64) {
	for ev, fn := range pending {
		ev.Cancel()
		s.After(delay, fn)
	}
}
