package trace

import (
	"fmt"
	"sort"
	"strings"

	"activego/internal/metrics"
	"activego/internal/report"
)

// ComponentStat is the occupancy of one component lane over the
// recording window: how many spans it recorded, how long at least one
// of them was open (busy, overlap-merged), and busy divided by the
// window length.
type ComponentStat struct {
	Component   string
	Spans       int
	Busy        float64
	Utilization float64
}

// summaryBins is how many fixed-width windows Summary slices the
// recording into for the occupancy-over-time section.
const summaryBins = 8

type interval struct{ lo, hi float64 }

// mergeIntervals sorts ivs and coalesces overlaps in place, so a lane
// running eight parallel jobs counts busy wall-time once.
func mergeIntervals(ivs []interval) []interval {
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		return ivs[i].hi < ivs[j].hi
	})
	out := ivs[:0]
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// mergedByComponent collects each component's spans as overlap-merged
// busy intervals, plus the raw span count per component.
func (r *Recorder) mergedByComponent() (map[string][]interval, map[string]int) {
	byComp := make(map[string][]interval)
	count := make(map[string]int)
	for i := range r.spans {
		s := &r.spans[i]
		byComp[s.Component] = append(byComp[s.Component], interval{s.Start, s.End})
		count[s.Component]++
	}
	for c, ivs := range byComp {
		byComp[c] = mergeIntervals(ivs)
	}
	return byComp, count
}

// ComponentStats computes per-component occupancy in first-seen
// component order. Overlapping spans are merged before integrating, so
// a lane running eight parallel jobs counts busy wall-time once.
func (r *Recorder) ComponentStats() []ComponentStat {
	if r == nil {
		return nil
	}
	min, max, ok := r.Window()
	elapsed := max - min
	if !ok || elapsed <= 0 {
		elapsed = 0
	}
	byComp, count := r.mergedByComponent()
	var out []ComponentStat
	for _, c := range r.compOrder {
		var busy float64
		for _, iv := range byComp[c] {
			busy += iv.hi - iv.lo
		}
		st := ComponentStat{Component: c, Spans: count[c], Busy: busy}
		if elapsed > 0 {
			st.Utilization = busy / elapsed
			if st.Utilization > 1 {
				st.Utilization = 1
			}
		}
		out = append(out, st)
	}
	return out
}

// OccupancyWindow is one fixed-width slice of the recording with each
// component's busy fraction inside it — the time-series twin of
// ComponentStats, binned the same way the obs.win series are
// (DESIGN.md §15). Utilization is indexed by component, in first-seen
// order.
type OccupancyWindow struct {
	Start, End  float64
	Utilization []float64
}

// OccupancyWindows bins the recording window into bins equal slices of
// simulated time and reports, per slice, each component's busy fraction
// (span overlap with the slice, overlap-merged, divided by the slice
// width). Components follow first-seen order.
// It integrates busy intervals across slice boundaries, which
// obs.Windows cannot: obs bins point observations by their timestamp,
// so a span straddling two slices would land whole in one of them.
func (r *Recorder) OccupancyWindows(bins int) []OccupancyWindow {
	if r == nil || bins <= 0 {
		return nil
	}
	min, max, ok := r.Window()
	if !ok || max <= min {
		return nil
	}
	width := (max - min) / float64(bins)
	byComp, _ := r.mergedByComponent()
	out := make([]OccupancyWindow, bins)
	for w := range out {
		lo := min + float64(w)*width
		hi := lo + width
		if w == bins-1 {
			hi = max // absorb float round-off into the last bin
		}
		util := make([]float64, len(r.compOrder))
		for ci, c := range r.compOrder {
			var busy float64
			for _, iv := range byComp[c] {
				olo, ohi := iv.lo, iv.hi
				if olo < lo {
					olo = lo
				}
				if ohi > hi {
					ohi = hi
				}
				if ohi > olo {
					busy += ohi - olo
				}
			}
			util[ci] = busy / (hi - lo)
			if util[ci] > 1 {
				util[ci] = 1
			}
		}
		out[w] = OccupancyWindow{Start: lo, End: hi, Utilization: util}
	}
	return out
}

// OccupancyWindowTable renders OccupancyWindows as a report table: one
// row per window, one util% column per component.
func (r *Recorder) OccupancyWindowTable(title string, bins int) *report.Table {
	headers := []string{"window", "start ms", "end ms"}
	if r != nil {
		for _, c := range r.compOrder {
			headers = append(headers, c+" util %")
		}
	}
	tbl := report.NewTable(title, headers...)
	for w, ow := range r.OccupancyWindows(bins) {
		cells := []string{
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%.4f", ow.Start*1e3),
			fmt.Sprintf("%.4f", ow.End*1e3),
		}
		for _, u := range ow.Utilization {
			cells = append(cells, fmt.Sprintf("%.1f", u*100))
		}
		tbl.AddRow(cells...)
	}
	return tbl
}

// SpanStat aggregates the latency of one (component, name) span class.
type SpanStat struct {
	Component string
	Name      string
	Count     int
	Total     float64
	Max       float64
}

// Mean returns the mean span duration.
func (s SpanStat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Total / float64(s.Count)
}

// SpanStats aggregates span durations by (component, name) in
// first-seen order. For queue-fed components (the NVMe lane) a span
// covers submission to completion, so these are queue latencies.
func (r *Recorder) SpanStats() []SpanStat {
	if r == nil {
		return nil
	}
	index := make(map[[2]string]int)
	var out []SpanStat
	for i := range r.spans {
		s := &r.spans[i]
		key := [2]string{s.Component, s.Name}
		j, ok := index[key]
		if !ok {
			j = len(out)
			index[key] = j
			out = append(out, SpanStat{Component: s.Component, Name: s.Name})
		}
		d := s.End - s.Start
		out[j].Count++
		out[j].Total += d
		if d > out[j].Max {
			out[j].Max = d
		}
	}
	return out
}

// SeriesStat summarizes one counter series over the recording window.
type SeriesStat struct {
	Name      string
	Component string
	Samples   int
	Min       float64
	Mean      float64 // time-weighted over [first sample, window end]
	Max       float64
}

// SeriesStats computes counter statistics in first-use order. The mean
// is time-weighted under step semantics (a counter holds its value
// until the next sample), integrated to the end of the recording
// window.
func (r *Recorder) SeriesStats() []SeriesStat {
	if r == nil {
		return nil
	}
	_, windowEnd, _ := r.Window()
	var out []SeriesStat
	for _, s := range r.series {
		st := SeriesStat{Name: s.Name, Component: s.Component, Samples: len(s.Samples)}
		if len(s.Samples) > 0 {
			st.Min = s.Samples[0].Value
			st.Max = s.Samples[0].Value
			var integral float64
			for i, p := range s.Samples {
				if p.Value < st.Min {
					st.Min = p.Value
				}
				if p.Value > st.Max {
					st.Max = p.Value
				}
				next := windowEnd
				if i+1 < len(s.Samples) {
					next = s.Samples[i+1].At
				}
				if next > p.At {
					integral += p.Value * (next - p.At)
				}
			}
			span := windowEnd - s.Samples[0].At
			if span > 0 {
				st.Mean = integral / span
			} else {
				st.Mean = s.Samples[len(s.Samples)-1].Value
			}
		}
		out = append(out, st)
	}
	return out
}

// Fold condenses the recording into reg: every series becomes three
// gauges (<name>.min/.mean/.max, time-weighted over the recording
// window) and every span lands in its component's
// span.<component>.seconds latency histogram. A nil recorder or nil
// registry is a no-op. The recording is read-only; folding never
// mutates it.
func (r *Recorder) Fold(reg *metrics.Registry) {
	if r == nil || reg == nil {
		return
	}
	for _, st := range r.SeriesStats() {
		reg.Gauge(st.Name + metrics.TraceMin).Set(st.Min)
		reg.Gauge(st.Name + metrics.TraceMean).Set(st.Mean)
		reg.Gauge(st.Name + metrics.TraceMax).Set(st.Max)
	}
	for _, sp := range r.spans {
		reg.Histogram(metrics.SpanPrefix + sp.Component + metrics.SpanSuffix).Observe(sp.End - sp.Start)
	}
}

// UtilizationTable renders ComponentStats as a report table.
func (r *Recorder) UtilizationTable(title string) *report.Table {
	tbl := report.NewTable(title, "component", "spans", "busy ms", "util %")
	for _, st := range r.ComponentStats() {
		tbl.AddRowf(st.Component, st.Spans,
			fmt.Sprintf("%.4f", st.Busy*1e3), fmt.Sprintf("%.1f", st.Utilization*100))
	}
	return tbl
}

// Summary renders the whole recording as text: per-component occupancy,
// span latency by class, and counter statistics — the -tracesummary
// output of the CLIs.
func (r *Recorder) Summary() string {
	var sb strings.Builder
	min, max, ok := r.Window()
	if !ok {
		return "trace: empty recording\n"
	}
	fmt.Fprintf(&sb, "trace window: %.4f ms (%d spans, %d instants, %d counter series)\n\n",
		(max-min)*1e3, len(r.Spans()), len(r.Instants()), len(r.Counters()))
	r.UtilizationTable("Per-component timeline occupancy").Render(&sb)

	if wins := r.OccupancyWindows(summaryBins); len(wins) > 0 {
		sb.WriteByte('\n')
		r.OccupancyWindowTable("Occupancy over time", summaryBins).Render(&sb)
	}

	sb.WriteByte('\n')
	spans := report.NewTable("Span latency by class", "component", "name", "count", "mean ms", "max ms")
	for _, st := range r.SpanStats() {
		spans.AddRowf(st.Component, st.Name, st.Count,
			fmt.Sprintf("%.4f", st.Mean()*1e3), fmt.Sprintf("%.4f", st.Max*1e3))
	}
	spans.Render(&sb)

	sb.WriteByte('\n')
	ctrs := report.NewTable("Counter series", "counter", "unit", "component", "samples", "min", "mean", "max")
	for _, st := range r.SeriesStats() {
		info, _ := metrics.Lookup(st.Name)
		ctrs.AddRowf(st.Name, info.Unit, st.Component, st.Samples,
			fmt.Sprintf("%.3g", st.Min), fmt.Sprintf("%.3g", st.Mean), fmt.Sprintf("%.3g", st.Max))
	}
	ctrs.Render(&sb)
	return sb.String()
}
