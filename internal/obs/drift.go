package obs

import (
	"fmt"
	"math"
	"sort"

	"activego/internal/analysis"
	"activego/internal/metrics"
	"activego/internal/plan"
)

// PlannedLine is the model-side half of a drift comparison: the per-
// invocation cost the planner priced a line at, on the unit it chose.
type PlannedLine struct {
	Line    int
	Unit    string  // "csd" or "host" — where the plan put the line
	Seconds float64 // planned seconds per dynamic invocation
	Total   float64 // Seconds × fitted execution count — the line's share
}

// PlannedFromProvenance derives per-invocation planned costs from a
// plan's frozen provenance record: an offloaded line is priced at its
// device total plus queue dispatch, a host line at its host total, both
// divided by the fitted execution count. Lines the profile says never
// run are skipped — there is nothing to observe. Nil provenance yields
// an empty map.
func PlannedFromProvenance(p *plan.Provenance) map[int]PlannedLine {
	if p == nil {
		return nil
	}
	out := make(map[int]PlannedLine, len(p.Lines))
	for i := range p.Lines {
		lp := &p.Lines[i]
		if lp.Execs <= 0 {
			continue
		}
		pl := PlannedLine{Line: lp.Line, Unit: "host", Seconds: lp.HostTotal / lp.Execs}
		if lp.OnCSD {
			pl.Unit = "csd"
			pl.Seconds = (lp.DevTotal + lp.QueueOverhead) / lp.Execs
		}
		pl.Total = pl.Seconds * lp.Execs
		out[lp.Line] = pl
	}
	return out
}

// DriftConfig tunes the scorer.
type DriftConfig struct {
	// Tolerance is the base relative error |observed−planned|/planned a
	// window may show before it counts as diverged.
	Tolerance float64
	// Widen adds Widen/sqrt(count) to the tolerance — thin windows carry
	// more sampling noise, so the band widens as evidence thins.
	Widen float64
	// StaleAfter is K: a line is flagged model-stale once divergence
	// persists for K consecutive windows.
	StaleAfter int
	// MinShare skips lines whose planned total is below this fraction of
	// the plan's whole projected time: relative error on a line that
	// contributes nothing to the placement decision is fit residue, not
	// model staleness (a ~10ns glue line can be 100x off and change no
	// argmin). Zero means score every line.
	MinShare float64
}

// DefaultDriftConfig returns the scorer defaults: a 1.0 relative-error
// band (fit residue plus serving contention stays well inside it; a
// 10%-availability burst blows through it), widened by 1/sqrt(count),
// stale after 3 consecutive diverged windows, lines under 1% of the
// plan's projected time exempt.
func DefaultDriftConfig() DriftConfig {
	return DriftConfig{Tolerance: 1.0, Widen: 1.0, StaleAfter: 3, MinShare: 0.01}
}

// LineDrift is one line's scored divergence.
type LineDrift struct {
	Line    int     `json:"line"`
	Unit    string  `json:"unit"`
	Planned float64 `json:"planned_seconds"` // per invocation
	// Observed is the mean observed per-invocation cost over the scored
	// windows; Ratio is the worst single-window observed/planned ratio.
	Observed float64 `json:"observed_seconds"`
	Ratio    float64 `json:"ratio"`
	Windows  int     `json:"windows"`  // windows with observations
	Diverged int     `json:"diverged"` // windows beyond tolerance
	Stale    bool    `json:"stale,omitempty"`
	// StaleSince is the window index where the streak that first reached
	// StaleAfter began (-1 when not stale).
	StaleSince int `json:"stale_since,omitempty"`
}

// DriftReport is the scored divergence of every planned line with
// observations.
type DriftReport struct {
	Config DriftConfig `json:"config"`
	Lines  []LineDrift `json:"lines"`
}

// ScoreDrift compares each planned line's windowed observed cost on its
// chosen unit against the planned per-invocation cost. Per window the
// observed cost is the window mean; a window diverges when its relative
// error exceeds Tolerance + Widen/sqrt(count); a line goes stale when
// StaleAfter consecutive windows diverge. Nil collector (or one with no
// matching series) yields a report with empty lines — never nil, so
// callers can render unconditionally.
func ScoreDrift(c *Collector, planned map[int]PlannedLine, cfg DriftConfig) *DriftReport {
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 1
	}
	rep := &DriftReport{Config: cfg}
	lines := make([]int, 0, len(planned))
	var grand float64
	for ln, pl := range planned {
		lines = append(lines, ln)
		grand += pl.Total
	}
	sort.Ints(lines)
	for _, ln := range lines {
		pl := planned[ln]
		if pl.Total < cfg.MinShare*grand {
			continue
		}
		stats := c.Windows().Stats(LineSeries(ln, pl.Unit+".seconds"))
		if len(stats) == 0 || pl.Seconds <= 0 {
			continue
		}
		ld := LineDrift{Line: ln, Unit: pl.Unit, Planned: pl.Seconds, StaleSince: -1}
		var sum float64
		var n int
		streak, streakStart := 0, -1
		for _, s := range stats {
			if s.Count == 0 {
				continue
			}
			ld.Windows++
			sum += s.Sum
			n += s.Count
			if ratio := s.Mean / pl.Seconds; ratio > ld.Ratio {
				ld.Ratio = ratio
			}
			rel := math.Abs(s.Mean-pl.Seconds) / pl.Seconds
			tol := cfg.Tolerance + cfg.Widen/math.Sqrt(float64(s.Count))
			if rel > tol {
				if streak == 0 {
					streakStart = s.Window
				}
				streak++
				ld.Diverged++
				if streak >= cfg.StaleAfter && !ld.Stale {
					ld.Stale = true
					ld.StaleSince = streakStart
				}
			} else {
				streak = 0
			}
		}
		if n > 0 {
			ld.Observed = sum / float64(n)
		}
		rep.Lines = append(rep.Lines, ld)
	}
	return rep
}

// ByLine indexes the report (nil map on a nil report).
func (r *DriftReport) ByLine() map[int]*LineDrift {
	if r == nil {
		return nil
	}
	idx := make(map[int]*LineDrift, len(r.Lines))
	for i := range r.Lines {
		idx[r.Lines[i].Line] = &r.Lines[i]
	}
	return idx
}

// StaleLines returns the model-stale lines in line order.
func (r *DriftReport) StaleLines() []int {
	if r == nil {
		return nil
	}
	var out []int
	for i := range r.Lines {
		if r.Lines[i].Stale {
			out = append(out, r.Lines[i].Line)
		}
	}
	return out
}

// Advisories renders the stale lines as AV012 diagnostics, in line
// order, ready to merge into Outcome.Advisories.
func (r *DriftReport) Advisories() []analysis.Diagnostic {
	if r == nil {
		return nil
	}
	var out []analysis.Diagnostic
	for i := range r.Lines {
		ld := &r.Lines[i]
		if !ld.Stale {
			continue
		}
		out = append(out, analysis.Diagnostic{
			Line: ld.Line, Code: analysis.CodeDrift, Severity: analysis.SevWarning,
			Msg: fmt.Sprintf("model stale: observed %s cost %.3gs/exec vs planned %.3gs/exec (%.2f×), diverged %d/%d windows, stale since window %d",
				ld.Unit, ld.Observed, ld.Planned, ld.Ratio, ld.Diverged, ld.Windows, ld.StaleSince),
		})
	}
	return out
}

// Fold bills the report's aggregates as obs.drift.* metrics. No-op when
// either side is nil.
func (r *DriftReport) Fold(reg *metrics.Registry) {
	if r == nil || reg == nil {
		return
	}
	var checks, diverged, stale int
	var maxRatio float64
	for i := range r.Lines {
		ld := &r.Lines[i]
		checks += ld.Windows
		diverged += ld.Diverged
		if ld.Stale {
			stale++
		}
		if ld.Ratio > maxRatio {
			maxRatio = ld.Ratio
		}
	}
	reg.Counter(metrics.MetricObsDriftChecks).Add(float64(checks))
	reg.Counter(metrics.MetricObsDriftDiverged).Add(float64(diverged))
	reg.Counter(metrics.MetricObsDriftStaleLines).Add(float64(stale))
	if checks > 0 {
		reg.Gauge(metrics.MetricObsDriftMaxRatio).Set(maxRatio)
	}
}
