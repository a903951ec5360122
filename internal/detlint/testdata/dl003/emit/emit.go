// Package emit is a detlint fixture: metric and series names that do
// not exist in the catalogue. DL003 must fire on the typo'd
// constant names and stay silent on the catalogued and dynamic ones.
package emit

import (
	"activego/internal/metrics"
	"activego/internal/trace"
)

// typoRuns is one character off the catalogued "exec.runs".
const typoRuns = "exec.run"

// Record mints two names the catalogue does not know about, plus a
// catalogued one and a dynamic one that are both fine.
func Record(reg *metrics.Registry, rec *trace.Recorder, dynamic string) {
	reg.Counter(typoRuns).Add(1)
	rec.Sample("exec.lines.csd.typo", 0, 1)
	reg.Counter(metrics.MetricExecRuns).Add(1)
	reg.Counter(dynamic).Add(1)
}
