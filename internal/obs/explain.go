package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"activego/internal/plan"
	"activego/internal/report"
)

// Explain cross-links a plan's frozen provenance with (optionally) a
// drift report over the same program: what the planner believed, what
// the run observed, and where the model went stale.
type Explain struct {
	Provenance *plan.Provenance `json:"provenance"`
	Drift      *DriftReport     `json:"drift,omitempty"`
}

// verdict renders one line's placement decision as prose.
func verdict(lp *plan.LineProvenance) string {
	switch {
	case lp.Pinned && lp.Pruned:
		return fmt.Sprintf("pinned: %s (never-win margin %.3gs)", lp.PinReason, lp.PruneMargin)
	case lp.Pinned:
		return "pinned: " + lp.PinReason
	case lp.OnCSD:
		dev := lp.DevTotal + lp.QueueOverhead
		if dev <= lp.HostTotal {
			return fmt.Sprintf("offloaded: CSD est. %.3gs <= host %.3gs", dev, lp.HostTotal)
		}
		// The per-line compare goes the other way: the argmin offloaded
		// this line to keep its neighbours' intermediates off the link.
		return fmt.Sprintf("offloaded: CSD est. %.3gs > host %.3gs alone; keeps %.0f B off the link", dev, lp.HostTotal, lp.DIn+lp.DOut)
	default:
		dev := lp.DevTotal + lp.QueueOverhead
		if lp.HostTotal <= dev {
			return fmt.Sprintf("host: est. %.3gs <= CSD %.3gs", lp.HostTotal, dev)
		}
		return fmt.Sprintf("host: est. %.3gs > CSD %.3gs alone; transfers tip the argmin", lp.HostTotal, dev)
	}
}

// Table renders the explain report as a per-line table: the Equation 1
// terms the argmin compared, the placement verdict, and — when a drift
// report is present — the observed per-invocation cost, worst ratio,
// and staleness cross-link.
func (e Explain) Table() *report.Table {
	headers := []string{"line", "execs", "host.s", "csd.s", "queue.s", "d2h.in", "d2h.out", "unit", "verdict"}
	if e.Drift != nil {
		headers = append(headers, "obs.s/exec", "drift", "stale")
	}
	title := "plan explain"
	if e.Provenance != nil {
		title = fmt.Sprintf("plan explain [%s]: projected %.4fs vs all-host %.4fs",
			e.Provenance.Planner, e.Provenance.TCSD, e.Provenance.THost)
	}
	tbl := report.NewTable(title, headers...)
	if e.Provenance == nil {
		return tbl
	}
	drift := e.Drift.ByLine()
	for i := range e.Provenance.Lines {
		lp := &e.Provenance.Lines[i]
		unit := "host"
		if lp.OnCSD {
			unit = "csd"
		}
		cells := []string{
			fmt.Sprintf("%d", lp.Line),
			fmt.Sprintf("%.0f", lp.Execs),
			fmt.Sprintf("%.4f", lp.HostTotal),
			fmt.Sprintf("%.4f", lp.DevTotal),
			fmt.Sprintf("%.4f", lp.QueueOverhead),
			fmt.Sprintf("%.0f", lp.DIn),
			fmt.Sprintf("%.0f", lp.DOut),
			unit,
			verdict(lp),
		}
		if e.Drift != nil {
			obsCell, ratioCell, staleCell := "-", "-", "-"
			if ld := drift[lp.Line]; ld != nil {
				obsCell = fmt.Sprintf("%.6f", ld.Observed)
				ratioCell = fmt.Sprintf("%.2fx", ld.Ratio)
				if ld.Stale {
					staleCell = fmt.Sprintf("since w%d", ld.StaleSince)
				} else {
					staleCell = "no"
				}
			}
			cells = append(cells, obsCell, ratioCell, staleCell)
		}
		tbl.AddRow(cells...)
	}
	return tbl
}

// WriteJSON serializes the explain report as indented JSON — the
// machine-readable twin of Table, consumed by `activego explain -json`.
func (e Explain) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}
