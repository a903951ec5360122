package experiments

import (
	"fmt"
	"slices"

	"activego/internal/driver"
	"activego/internal/exec"
	"activego/internal/metrics"
	"activego/internal/platform"
	"activego/internal/report"
	"activego/internal/trace"
	"activego/internal/workloads"
)

// The serving study (ours — no paper counterpart): the paper evaluates
// one application at a time, start to finish, on an otherwise idle
// device. A deployed CSD is shared — several tenants fire streams of
// small requests at one long-lived platform, and what matters is not a
// single run's latency but the tail of the distribution and how fairly
// the device's capacity divides under contention. This study drives the
// multi-tenant serving layer (internal/driver, DESIGN.md §14) across an
// offered-load axis calibrated against the platform's measured capacity
// and reports p50/p95/p99 latency per tenant plus Jain's fairness index
// per load point.

// ServingSeed seeds every tenant's arrival and mix stream; one seed
// makes the whole sweep bit-reproducible.
const ServingSeed uint64 = 17

// ServingLoads is the offered-load axis, as a fraction of the measured
// serving capacity: comfortably under, at, and well past saturation.
// The overloaded point is where queueing blows up the tail and the
// admission controller starts shedding — exactly the regime the
// fairness index is for.
var ServingLoads = []float64{0.5, 1.0, 2.0}

// ServingMaxInFlight / ServingMaxQueue bound the platform's service
// slots and admission queue for the study.
const (
	ServingMaxInFlight = 4
	ServingMaxQueue    = 8
)

// ServingRequestTarget sizes each load point's horizon: the arrival
// horizon is chosen so roughly this many requests are offered in total,
// keeping the study's cost flat across the load axis.
const ServingRequestTarget = 48

// ServingTenantSpec is one default tenant template: a weighted scenario
// mix and an arrival discipline.
type ServingTenantSpec struct {
	Name    string
	Weights []driver.Weighted
	Process driver.Process
	// BurstFactor/DutyCycle/Period apply when Process is Bursty.
	BurstFactor float64
	DutyCycle   float64
	Period      float64
}

// ServingTenants are the default tenant population: two Poisson
// streams with opposite mix skews and one bursty stream, so the sweep
// exercises contention between smooth and spiky traffic over distinct
// workload blends.
var ServingTenants = []ServingTenantSpec{
	{Name: "interactive", Process: driver.Poisson,
		Weights: []driver.Weighted{{Name: "tpch-6", Weight: 4}, {Name: "blackscholes", Weight: 1}}},
	{Name: "batch", Process: driver.Poisson,
		Weights: []driver.Weighted{{Name: "kmeans", Weight: 4}, {Name: "tpch-6", Weight: 1}}},
	{Name: "spiky", Process: driver.Bursty, BurstFactor: 6, DutyCycle: 0.2,
		Weights: []driver.Weighted{{Name: "blackscholes", Weight: 4}, {Name: "kmeans", Weight: 1}}},
}

// servingPrograms are the workloads the tenant templates mix, in order
// of first mention; -tenants only cycles the templates, so no override
// adds one.
var servingPrograms = Programs{Names: servingNames()}

func servingNames() []string {
	var names []string
	for _, spec := range ServingTenants {
		for _, w := range spec.Weights {
			if !slices.Contains(names, w.Name) {
				names = append(names, w.Name)
			}
		}
	}
	return names
}

// ServingOverrides are the CLI-facing knobs (-tenants, -arrival, -qps,
// -duration). Zero values mean "use the study's documented defaults",
// so the committed baselines and CI runs are unaffected by the flags
// existing.
type ServingOverrides struct {
	// Tenants resizes the population: n tenants cycling through the
	// ServingTenants templates.
	Tenants int
	// Arrival forces every tenant onto one arrival process
	// ("poisson", "bursty", "uniform", "closed").
	Arrival string
	// QPS overrides the calibrated capacity as the load-1.0 total
	// offered rate, in requests per simulated second.
	QPS float64
	// Duration fixes every load point's arrival horizon in simulated
	// seconds instead of deriving it from ServingRequestTarget.
	Duration float64
}

// WithServing applies CLI overrides to the serving study.
func WithServing(ov ServingOverrides) Option {
	return func(o *options) { o.serving = ov }
}

// ServingCell is one load point's outcome.
type ServingCell struct {
	// Load is the offered-load fraction of capacity; TotalQPS the
	// resulting offered rate; Horizon the arrival window.
	Load     float64
	TotalQPS float64
	Horizon  float64
	Res      *driver.Result
}

// ServingResult is the full sweep.
type ServingResult struct {
	// MeanService is the calibrated mix-weighted solo service time per
	// request; CapacityQPS = ServingMaxInFlight / MeanService is the
	// load-1.0 offered rate.
	MeanService float64
	CapacityQPS float64
	Cells       []ServingCell

	// Rec is the structured trace of the highest-load run — the
	// timeline that shows queue depth and in-flight saturating.
	Rec *trace.Recorder
}

// servingTenantConfigs instantiates the tenant population for one load
// point: per-tenant QPS splits the total evenly, and the bursty
// template's modulation period is sized to the horizon so several
// on/off cycles land inside the window.
func servingTenantConfigs(specs []ServingTenantSpec, mixes []*driver.Mix,
	perTenantQPS, horizon, meanService float64) []driver.TenantConfig {
	out := make([]driver.TenantConfig, 0, len(specs))
	for i, spec := range specs {
		arr := driver.Arrival{Process: spec.Process, QPS: perTenantQPS}
		switch spec.Process {
		case driver.Bursty:
			arr.BurstFactor = spec.BurstFactor
			arr.DutyCycle = spec.DutyCycle
			arr.Period = spec.Period
			if arr.Period == 0 {
				arr.Period = horizon / 4
			}
		case driver.Closed:
			arr.Workers = ServingMaxInFlight + 2
			arr.Think = meanService / 2
		}
		out = append(out, driver.TenantConfig{Name: spec.Name, Mix: mixes[i], Arrival: arr})
	}
	return out
}

// servingSpecs resolves the tenant templates under the overrides.
func servingSpecs(ov ServingOverrides) []ServingTenantSpec {
	specs := ServingTenants
	if ov.Tenants > 0 {
		specs = make([]ServingTenantSpec, ov.Tenants)
		for i := range specs {
			specs[i] = ServingTenants[i%len(ServingTenants)]
			specs[i].Name = fmt.Sprintf("%s%d", specs[i].Name, i/len(ServingTenants)+1)
			if ov.Tenants <= len(ServingTenants) {
				specs[i].Name = ServingTenants[i].Name
			}
		}
	}
	if ov.Arrival != "" {
		for i := range specs {
			specs[i].Process = driver.Process(ov.Arrival)
		}
	}
	return specs
}

// servingCalibrate measures each scenario's solo warm service time on a
// fresh platform and folds them into the tenant-mix-weighted mean.
func servingCalibrate(specs []ServingTenantSpec, scenarios map[string]*driver.Scenario) (float64, error) {
	solo := map[string]float64{}
	for name, sc := range scenarios {
		res, err := exec.Run(platform.Default(), sc.Trace, sc.ReplayOptions())
		if err != nil {
			return 0, fmt.Errorf("experiments: serving: calibrate %s: %w", name, err)
		}
		solo[name] = res.Duration
	}
	var mean float64
	for _, spec := range specs {
		var wsum, acc float64
		for _, w := range spec.Weights {
			acc += w.Weight * solo[w.Name]
			wsum += w.Weight
		}
		mean += acc / wsum
	}
	return mean / float64(len(specs)), nil
}

// Serving runs the multi-tenant serving sweep: calibrate capacity from
// solo warm runs, then drive the tenant population at each offered-load
// fraction on its own fresh long-lived platform, fanned out on the
// pool. Load points are independent runs, so -j 1 and -j N produce
// bit-identical rows, manifests, and traces (the per-point recorder is
// private to its platform).
func Serving(params workloads.Params, opts ...Option) (*ServingResult, *report.Table, error) {
	o := buildOptions(opts)
	ov := o.serving
	specs := servingSpecs(ov)

	// View every program the tenant templates mix as a scenario once;
	// the load points share them read-only (a Scenario is immutable after
	// construction — the executor never writes through it).
	set, err := o.programs(params, servingPrograms)
	if err != nil {
		return nil, nil, err
	}
	scenarios := map[string]*driver.Scenario{}
	for _, name := range servingPrograms.Names {
		wb, err := set.workbench(name, nil)
		if err != nil {
			return nil, nil, err
		}
		scenarios[name] = driver.NewScenario(name, wb.Prepared, params.OverheadScale())
	}
	mixes := make([]*driver.Mix, len(specs))
	for i, spec := range specs {
		entries := make([]driver.MixEntry, 0, len(spec.Weights))
		for _, w := range spec.Weights {
			entries = append(entries, driver.MixEntry{Scenario: scenarios[w.Name], Weight: w.Weight})
		}
		m, err := driver.NewMix(entries...)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: serving: %s: %w", spec.Name, err)
		}
		mixes[i] = m
	}

	meanService, err := servingCalibrate(specs, scenarios)
	if err != nil {
		return nil, nil, err
	}
	capacity := ServingMaxInFlight / meanService
	if ov.QPS > 0 {
		capacity = ov.QPS
	}
	maxLoad := ServingLoads[len(ServingLoads)-1]

	type perLoad struct {
		cell ServingCell
		rec  *trace.Recorder
	}
	per, err := overSpecs(o, len(ServingLoads), func(i int, reg *metrics.Registry) (perLoad, error) {
		load := ServingLoads[i]
		totalQPS := load * capacity
		horizon := ServingRequestTarget / totalQPS
		if ov.Duration > 0 {
			horizon = ov.Duration
		}
		p := platform.Default()
		var rec *trace.Recorder
		if load == maxLoad {
			rec = trace.New()
			p.SetRecorder(rec)
		}
		res, err := driver.Run(p, driver.Config{
			Seed:        ServingSeed,
			Duration:    horizon,
			Tenants:     servingTenantConfigs(specs, mixes, totalQPS/float64(len(specs)), horizon, meanService),
			MaxInFlight: ServingMaxInFlight,
			MaxQueue:    ServingMaxQueue,
			Metrics:     reg,
		})
		if err != nil {
			return perLoad{}, fmt.Errorf("experiments: serving: load %.2f: %w", load, err)
		}
		p.FoldMetrics(reg)
		return perLoad{
			cell: ServingCell{Load: load, TotalQPS: totalQPS, Horizon: horizon, Res: res},
			rec:  rec,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}

	out := &ServingResult{MeanService: meanService, CapacityQPS: capacity}
	tbl := report.NewTable("Serving: multi-tenant tail latency and fairness vs offered load",
		"load", "tenant", "offered", "admitted", "shed", "completed",
		"p50", "p95", "p99", "fairness")
	for _, pl := range per {
		out.Cells = append(out.Cells, pl.cell)
		if pl.rec != nil {
			out.Rec = pl.rec
		}
		res := pl.cell.Res
		for _, tr := range res.Tenants {
			tbl.AddRow(fmt.Sprintf("%.2f", pl.cell.Load), tr.Name,
				fmt.Sprintf("%d", tr.Offered),
				fmt.Sprintf("%d", tr.Admitted),
				fmt.Sprintf("%d", tr.Shed),
				fmt.Sprintf("%d", tr.Completed),
				fmt.Sprintf("%.4fs", tr.P50),
				fmt.Sprintf("%.4fs", tr.P95),
				fmt.Sprintf("%.4fs", tr.P99),
				"")
		}
		tbl.AddRow(fmt.Sprintf("%.2f", pl.cell.Load), "ALL",
			fmt.Sprintf("%d", res.Offered),
			fmt.Sprintf("%d", res.Admitted),
			fmt.Sprintf("%d", res.Shed),
			fmt.Sprintf("%d", res.Completed),
			"", "", "",
			fmt.Sprintf("%.3f", res.Fairness))
	}
	return out, tbl, nil
}
