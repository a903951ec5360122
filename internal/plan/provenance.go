// Plan provenance: the record of what the planner believed at the
// moment it chose a partition. The executor's observed costs drift away
// from these estimates over time (internal/obs scores that drift);
// provenance is the frozen half of the comparison, rendered by
// `activego explain`.
package plan

import "sort"

// LineProvenance freezes one line's Equation 1 terms and the placement
// verdict derived from them.
type LineProvenance struct {
	Line  int     `json:"line"`
	Execs float64 `json:"execs"`

	// The raw Equation 1 quantities (seconds / bytes, full scale).
	CTHost float64 `json:"ct_host"`
	CTDev  float64 `json:"ct_dev"`
	SHost  float64 `json:"s_host"`
	SDev   float64 `json:"s_dev"`
	DIn    float64 `json:"d_in"`
	DOut   float64 `json:"d_out"`

	// The derived totals the argmin actually compared.
	HostTotal     float64 `json:"host_total"`
	DevTotal      float64 `json:"dev_total"`
	QueueOverhead float64 `json:"queue_overhead"`

	// OnCSD is the chosen placement.
	OnCSD bool `json:"on_csd"`
	// Pinned marks a line the constraints barred from the CSD (static
	// legality or an AV011 never-win proof); PinReason says why.
	Pinned    bool   `json:"pinned,omitempty"`
	PinReason string `json:"pin_reason,omitempty"`
	// Pruned marks a line the AV011 proof removed from the search;
	// PruneMargin is the seconds by which its cheapest offload still
	// loses.
	Pruned      bool    `json:"pruned,omitempty"`
	PruneMargin float64 `json:"prune_margin,omitempty"`
}

// Provenance is the whole plan's frozen decision record.
type Provenance struct {
	// Planner names the algorithm that actually produced the partition
	// (BnBBudget's Algorithm1 budget fallback included).
	Planner string           `json:"planner"`
	THost   float64          `json:"t_host"`
	TCSD    float64          `json:"t_csd"`
	Lines   []LineProvenance `json:"lines"`
}

// BuildProvenance captures the plan-time record from a planner result,
// the constraints it ran under, and the never-win prunings (pass nil if
// none were computed). The result is self-contained: it copies every
// estimate term, so it stays valid after the plan or its estimates are
// mutated downstream.
func BuildProvenance(res *Result, cons Constraints, pruned []PrunedLine, m Machine) *Provenance {
	prunedBy := make(map[int]PrunedLine, len(pruned))
	for _, pl := range pruned {
		prunedBy[pl.Line] = pl
	}
	p := &Provenance{Planner: res.Planner, THost: res.THost, TCSD: res.TCSD}
	for i := range res.Estimates {
		e := &res.Estimates[i]
		lp := LineProvenance{
			Line:          e.Line,
			Execs:         e.Execs,
			CTHost:        e.CTHost,
			CTDev:         e.CTDev,
			SHost:         e.SHost,
			SDev:          e.SDev,
			DIn:           e.DIn,
			DOut:          e.DOut,
			HostTotal:     e.HostTotal(),
			DevTotal:      e.DevTotal(),
			QueueOverhead: e.QueueOverhead(m),
			OnCSD:         res.Partition.OnCSD(e.Line),
		}
		if reason, ok := cons.Pinned(e.Line); ok {
			lp.Pinned, lp.PinReason = true, reason
		}
		if pl, ok := prunedBy[e.Line]; ok {
			lp.Pruned, lp.PruneMargin = true, pl.Margin
		}
		p.Lines = append(p.Lines, lp)
	}
	sort.Slice(p.Lines, func(i, j int) bool { return p.Lines[i].Line < p.Lines[j].Line })
	return p
}
