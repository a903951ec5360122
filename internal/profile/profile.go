// Package profile implements ActivePy's sampling phase (§III-A): run the
// program on heuristically scaled-down inputs at the paper's four scale
// factors — tiny 2⁻¹⁰, small 2⁻⁹, medium 2⁻⁸, large 2⁻⁷ — with a line
// profiler attached, then fit complexity curves to every per-line metric
// and extrapolate to the raw input (scale 1).
//
// The paper is explicit that sample runs need not produce meaningful
// *results*; they exist to collect statistics. Here the sample runs are
// real interpreter executions over prefix-sampled inputs, so statistics
// (and their extrapolation errors) are genuine.
package profile

import (
	"fmt"
	"sort"

	"activego/internal/fit"
	"activego/internal/inputs"
	"activego/internal/lang/ast"
	"activego/internal/lang/interp"
	"activego/internal/metrics"
	"activego/internal/par"
)

// Scales are the paper's four sampling scale factors.
var Scales = []float64{1.0 / 1024, 1.0 / 512, 1.0 / 256, 1.0 / 128}

// ScaledScales are the factors used when the raw inputs are themselves
// scaled-down stand-ins for multi-GB datasets. The paper samples
// 2^-10…2^-7 of 5–9 GB, i.e. samples of 5–70 MB — large enough for
// selectivities to be statistically stable. Experiment instances here run
// at megabytes total, so sampling 2^-6…2^-3 of them keeps the *absolute*
// sample magnitude (and the per-octave extrapolation ladder) comparable
// to the paper's instead of shrinking samples to a few dozen rows.
var ScaledScales = []float64{1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8}

// Metrics aggregates one line's costs over one sample run.
type Metrics struct {
	KernelWork   float64
	GlueWork     float64
	CopyBytes    float64
	StorageBytes float64
	InBytes      float64 // named-variable reads
	OutBytes     float64 // named-variable writes
	Execs        float64 // dynamic instances of the line

	// ReadVars/WriteVars attribute the byte totals to variable names; the
	// planner uses them to price data residency across line placements.
	ReadVars  map[string]float64
	WriteVars map[string]float64
}

func (m *Metrics) add(rec *interp.LineRecord) {
	m.KernelWork += rec.Cost.KernelWork
	m.GlueWork += rec.Cost.GlueWork
	m.CopyBytes += float64(rec.Cost.CopyBytes)
	m.StorageBytes += float64(rec.Cost.StorageBytes)
	m.InBytes += float64(rec.InBytes())
	m.OutBytes += float64(rec.OutBytes())
	m.Execs++
	if m.ReadVars == nil {
		m.ReadVars = map[string]float64{}
		m.WriteVars = map[string]float64{}
	}
	for _, u := range rec.Reads {
		m.ReadVars[u.Name] += float64(u.Bytes)
	}
	for _, u := range rec.Writes {
		m.WriteVars[u.Name] += float64(u.Bytes)
	}
}

// metricNames index the fitted models of a line.
const (
	mKernel = iota
	mGlue
	mCopy
	mStorage
	mIn
	mOut
	mExecs
	numMetrics
)

// LineProfile is one source line's samples and fitted predictors.
type LineProfile struct {
	Line    int
	Samples map[float64]*Metrics // scale -> metrics
	Models  [numMetrics]fit.Model
	// VarModels predicts per-variable byte volumes; keys are
	// "<var>\x00r" (reads) and "<var>\x00w" (writes).
	VarModels  map[string]fit.Model
	readNames  []string
	writeNames []string
}

// VarBytes is a predicted per-variable byte volume on one line.
type VarBytes struct {
	Name  string
	Bytes float64
}

// Prediction is the extrapolated full-scale estimate for one line.
type Prediction struct {
	Line         int
	KernelWork   float64
	GlueWork     float64
	CopyBytes    float64
	StorageBytes float64
	InBytes      float64
	OutBytes     float64
	Execs        float64
	Reads        []VarBytes // per-variable read volumes, sorted by name
	Writes       []VarBytes // per-variable write volumes, sorted by name
}

// Predict evaluates the fitted models at the given scale (1 = raw input).
func (lp *LineProfile) Predict(scale float64) Prediction {
	p := Prediction{
		Line:         lp.Line,
		KernelWork:   lp.Models[mKernel].Predict(scale),
		GlueWork:     lp.Models[mGlue].Predict(scale),
		CopyBytes:    lp.Models[mCopy].Predict(scale),
		StorageBytes: lp.Models[mStorage].Predict(scale),
		InBytes:      lp.Models[mIn].Predict(scale),
		OutBytes:     lp.Models[mOut].Predict(scale),
		Execs:        lp.Models[mExecs].Predict(scale),
	}
	for _, v := range lp.readNames {
		p.Reads = append(p.Reads, VarBytes{Name: v, Bytes: lp.VarModels[v+"\x00r"].Predict(scale)})
	}
	for _, v := range lp.writeNames {
		p.Writes = append(p.Writes, VarBytes{Name: v, Bytes: lp.VarModels[v+"\x00w"].Predict(scale)})
	}
	return p
}

// Report is the sampling phase's output for one program.
type Report struct {
	Lines []*LineProfile // ascending by source line
}

// Predictions extrapolates every line to full scale.
func (r *Report) Predictions() []Prediction {
	out := make([]Prediction, len(r.Lines))
	for i, lp := range r.Lines {
		out[i] = lp.Predict(1)
	}
	return out
}

// RunScalesPool performs the sampling phase: one scaled interpreter run
// of prog over reg per scale factor, aggregated per line and
// curve-fitted per metric. The wall-clock cost of the sampling runs and
// of curve fitting lands in met's phase histograms; a nil registry
// records nothing and reads no clock. The runs fan out on pool (nil =
// serial). Each scale already builds its own interpreter context over
// the read-only input registry, so the runs are independent; per-scale
// aggregates are merged back in scale order, which makes the report —
// and everything fitted from it — bit-identical to the serial path.
func RunScalesPool(prog *ast.Program, reg *inputs.Registry, scales []float64, met *metrics.Registry, pool *par.Pool) (*Report, error) {
	if len(scales) < 2 {
		return nil, fmt.Errorf("profile: need at least 2 scale factors, got %d", len(scales))
	}
	stopSample := met.Phase(metrics.PhaseSample)
	perScale, err := par.Map(pool, len(scales), func(si int) (map[int]*Metrics, error) {
		scale := scales[si]
		ctx := reg.Context(scale)
		trace, _, err := interp.Run(prog, ctx)
		if err != nil {
			return nil, fmt.Errorf("profile: sample run at scale %g: %w", scale, err)
		}
		byLine := map[int]*Metrics{}
		for i := range trace.Records {
			rec := &trace.Records[i]
			m := byLine[rec.Line]
			if m == nil {
				m = &Metrics{}
				byLine[rec.Line] = m
			}
			m.add(rec)
		}
		return byLine, nil
	})
	if err != nil {
		stopSample()
		return nil, err
	}
	byLine := map[int]*LineProfile{}
	for si, scale := range scales {
		for line, m := range perScale[si] {
			lp := byLine[line]
			if lp == nil {
				lp = &LineProfile{Line: line, Samples: map[float64]*Metrics{}}
				byLine[line] = lp
			}
			lp.Samples[scale] = m
		}
	}
	report := &Report{}
	for _, lp := range byLine {
		report.Lines = append(report.Lines, lp)
	}
	sort.Slice(report.Lines, func(i, j int) bool { return report.Lines[i].Line < report.Lines[j].Line })
	stopSample()

	stopFit := met.Phase(metrics.PhaseFit)
	defer stopFit()
	for _, lp := range report.Lines {
		xs := make([]float64, 0, len(scales))
		for _, s := range scales {
			if _, ok := lp.Samples[s]; ok {
				xs = append(xs, s)
			}
		}
		if len(xs) < 2 {
			// A line that executed in fewer than two sample runs (e.g., a
			// data-dependent branch): predict it as constant at the value
			// seen.
			var m Metrics
			for _, s := range xs {
				m = *lp.Samples[s]
			}
			for mi := 0; mi < numMetrics; mi++ {
				lp.Models[mi] = fit.Model{Curve: fit.O1, B: metricAt(&m, mi)}
			}
			continue
		}
		for mi := 0; mi < numMetrics; mi++ {
			ys := make([]float64, len(xs))
			for i, s := range xs {
				ys[i] = metricAt(lp.Samples[s], mi)
			}
			model, err := fit.Fit(xs, ys)
			if err != nil {
				return nil, fmt.Errorf("profile: line %d metric %d: %w", lp.Line, mi, err)
			}
			lp.Models[mi] = model
		}
		if err := lp.fitVars(xs); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// fitVars fits per-variable byte-volume models across the sample scales.
func (lp *LineProfile) fitVars(xs []float64) error {
	lp.VarModels = map[string]fit.Model{}
	names := func(pick func(*Metrics) map[string]float64) []string {
		set := map[string]bool{}
		for _, m := range lp.Samples {
			for v := range pick(m) {
				set[v] = true
			}
		}
		out := make([]string, 0, len(set))
		for v := range set {
			out = append(out, v)
		}
		sort.Strings(out)
		return out
	}
	lp.readNames = names(func(m *Metrics) map[string]float64 { return m.ReadVars })
	lp.writeNames = names(func(m *Metrics) map[string]float64 { return m.WriteVars })
	fitOne := func(v string, suffix string, pick func(*Metrics) map[string]float64) error {
		ys := make([]float64, len(xs))
		for i, s := range xs {
			if m := lp.Samples[s]; m != nil && pick(m) != nil {
				ys[i] = pick(m)[v]
			}
		}
		model, err := fit.Fit(xs, ys)
		if err != nil {
			return fmt.Errorf("profile: line %d var %q: %w", lp.Line, v, err)
		}
		lp.VarModels[v+suffix] = model
		return nil
	}
	for _, v := range lp.readNames {
		if err := fitOne(v, "\x00r", func(m *Metrics) map[string]float64 { return m.ReadVars }); err != nil {
			return err
		}
	}
	for _, v := range lp.writeNames {
		if err := fitOne(v, "\x00w", func(m *Metrics) map[string]float64 { return m.WriteVars }); err != nil {
			return err
		}
	}
	return nil
}

func metricAt(m *Metrics, mi int) float64 {
	switch mi {
	case mKernel:
		return m.KernelWork
	case mGlue:
		return m.GlueWork
	case mCopy:
		return m.CopyBytes
	case mStorage:
		return m.StorageBytes
	case mIn:
		return m.InBytes
	case mOut:
		return m.OutBytes
	case mExecs:
		return m.Execs
	}
	panic("profile: bad metric index")
}
