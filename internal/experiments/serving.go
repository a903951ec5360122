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

// ServingRequestTarget sizes every serving run's horizon: unless
// -duration fixes it, the arrival horizon is chosen so roughly this many
// requests are offered in total, keeping a run's cost flat across
// offered rates.
const ServingRequestTarget = 48

// ServingTenantSpec is one tenant template: a weighted scenario mix and
// an arrival discipline. ServingTraffic fills in the arrival's rate,
// modulation period and closed-loop population; a bursty template may
// name its own BurstFactor and DutyCycle.
type ServingTenantSpec struct {
	Name    string
	Weights []driver.Weighted
	Arrival driver.Arrival
}

// ServingTenants are the study's tenant templates: two Poisson streams
// with opposite mix skews and one bursty stream, so the sweep exercises
// contention between smooth and spiky traffic over distinct workload
// blends.
var ServingTenants = []ServingTenantSpec{
	{Name: "interactive", Arrival: driver.Arrival{Process: driver.Poisson},
		Weights: []driver.Weighted{{Name: "tpch-6", Weight: 4}, {Name: "blackscholes", Weight: 1}}},
	{Name: "batch", Arrival: driver.Arrival{Process: driver.Poisson},
		Weights: []driver.Weighted{{Name: "kmeans", Weight: 4}, {Name: "tpch-6", Weight: 1}}},
	{Name: "spiky", Arrival: driver.Arrival{Process: driver.Bursty, BurstFactor: 6, DutyCycle: 0.2},
		Weights: []driver.Weighted{{Name: "blackscholes", Weight: 4}, {Name: "kmeans", Weight: 1}}},
}

// servingBurst is the burst shape a bursty tenant takes for any
// parameter its template leaves zero: a 4x peak for a quarter of each
// period. It is what -arrival bursty gives a Poisson template.
var servingBurst = driver.Arrival{BurstFactor: 4, DutyCycle: 0.25}

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
// -duration) that cliutil.RegisterServing parses for every command that
// drives traffic. They mean the same on every command, because every
// command builds its traffic through ServingCalibrate and ServingTraffic.
// Zero values mean "use the documented defaults", so the committed
// baselines and CI runs are unaffected by the flags existing.
type ServingOverrides struct {
	// Tenants resizes the population: n tenants cycling through the
	// command's templates.
	Tenants int
	// Arrival forces every tenant onto one arrival process
	// ("poisson", "bursty", "uniform", "closed").
	Arrival string
	// QPS overrides the calibrated capacity as the load-1.0 total
	// offered rate, in requests per simulated second.
	QPS float64
	// Duration fixes every run's arrival horizon in simulated seconds
	// instead of deriving it from ServingRequestTarget.
	Duration float64
}

// Capacity is the load-1.0 total offered rate of a population whose
// calibrated solo service time is solo: QPS when set, else
// ServingMaxInFlight / solo.
func (ov ServingOverrides) Capacity(solo float64) float64 {
	if ov.QPS > 0 {
		return ov.QPS
	}
	return ServingMaxInFlight / solo
}

// WithServing applies CLI overrides to the serving study.
func WithServing(ov ServingOverrides) Option {
	return func(o *options) { o.serving = ov }
}

// ServingCell is one load point's outcome.
type ServingCell struct {
	Load float64 // the offered-load fraction of capacity
	Res  *driver.Result
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

// servingSpecs resolves templates under ov into a fresh slice: -tenants
// n cycles them into n tenants, the first pass keeping the template
// names and later passes appending the pass number ("batch-2"), and
// -arrival forces every tenant's process.
func servingSpecs(templates []ServingTenantSpec, ov ServingOverrides) []ServingTenantSpec {
	n := len(templates)
	if ov.Tenants > 0 {
		n = ov.Tenants
	}
	specs := make([]ServingTenantSpec, n)
	for i := range specs {
		specs[i] = templates[i%len(templates)]
		if pass := i / len(templates); pass > 0 {
			specs[i].Name = fmt.Sprintf("%s-%d", specs[i].Name, pass+1)
		}
		if ov.Arrival != "" {
			specs[i].Arrival.Process = driver.Process(ov.Arrival)
		}
	}
	return specs
}

// ServingCalibrate is the one serving calibration: each scenario the
// population (templates under ov) mixes replays warm and alone on a
// fresh platform, and the solo times fold into the mean over tenants of
// each tenant's mix-weighted solo service time.
func ServingCalibrate(templates []ServingTenantSpec, scenarios map[string]*driver.Scenario, ov ServingOverrides) (float64, error) {
	specs := servingSpecs(templates, ov)
	solo := map[string]float64{}
	var mean float64
	for _, spec := range specs {
		var wsum, acc float64
		for _, w := range spec.Weights {
			d, ok := solo[w.Name]
			if !ok {
				sc := scenarios[w.Name]
				if sc == nil {
					return 0, fmt.Errorf("experiments: tenant %s mixes unknown scenario %q", spec.Name, w.Name)
				}
				res, err := exec.Run(platform.Default(), sc.Trace, sc.ReplayOptions())
				if err != nil {
					return 0, fmt.Errorf("experiments: calibrate %s: %w", w.Name, err)
				}
				d = res.Duration
				solo[w.Name] = d
			}
			acc += w.Weight * d
			wsum += w.Weight
		}
		mean += acc / wsum
	}
	return mean / float64(len(specs)), nil
}

// ServingTraffic is the one serving tenant builder: the serving and
// drift studies, `activego -serve` and `csdsim -serve` all turn their
// templates into tenants here. The population is templates under ov
// (servingSpecs), and its tenants split totalQPS evenly. A bursty tenant
// takes servingBurst for any parameter its template leaves zero and a
// modulation period of a quarter horizon, so several on/off cycles land
// inside the window; every closed-loop tenant runs ServingMaxInFlight+2
// workers that think solo/2 seconds. It returns the tenants and the
// arrival horizon: ServingRequestTarget / totalQPS unless ov.Duration
// fixes it.
func ServingTraffic(templates []ServingTenantSpec, scenarios map[string]*driver.Scenario,
	ov ServingOverrides, totalQPS, solo float64) ([]driver.TenantConfig, float64, error) {
	horizon := ServingRequestTarget / totalQPS
	if ov.Duration > 0 {
		horizon = ov.Duration
	}
	specs := servingSpecs(templates, ov)
	out := make([]driver.TenantConfig, len(specs))
	for i, spec := range specs {
		entries := make([]driver.MixEntry, len(spec.Weights))
		for k, w := range spec.Weights {
			entries[k] = driver.MixEntry{Scenario: scenarios[w.Name], Weight: w.Weight}
		}
		mix, err := driver.NewMix(entries...)
		if err != nil {
			return nil, 0, fmt.Errorf("experiments: tenant %s: %w", spec.Name, err)
		}
		arr := spec.Arrival
		arr.QPS = totalQPS / float64(len(specs))
		switch arr.Process {
		case driver.Bursty:
			if arr.BurstFactor == 0 {
				arr.BurstFactor = servingBurst.BurstFactor
			}
			if arr.DutyCycle == 0 {
				arr.DutyCycle = servingBurst.DutyCycle
			}
			arr.Period = horizon / 4
		case driver.Closed:
			arr.Workers = ServingMaxInFlight + 2
			arr.Think = solo / 2
		}
		out[i] = driver.TenantConfig{Name: spec.Name, Mix: mix, Arrival: arr}
	}
	return out, horizon, nil
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
	meanService, err := ServingCalibrate(ServingTenants, scenarios, ov)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: serving: %w", err)
	}
	capacity := ov.Capacity(meanService)
	maxLoad := ServingLoads[len(ServingLoads)-1]

	type perLoad struct {
		cell ServingCell
		rec  *trace.Recorder
	}
	per, err := overSpecs(o, len(ServingLoads), func(i int, reg *metrics.Registry) (perLoad, error) {
		load := ServingLoads[i]
		tenants, horizon, err := ServingTraffic(ServingTenants, scenarios, ov, load*capacity, meanService)
		if err != nil {
			return perLoad{}, fmt.Errorf("experiments: serving: %w", err)
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
			Tenants:     tenants,
			MaxInFlight: ServingMaxInFlight,
			MaxQueue:    ServingMaxQueue,
			Metrics:     reg,
		})
		if err != nil {
			return perLoad{}, fmt.Errorf("experiments: serving: load %.2f: %w", load, err)
		}
		p.FoldMetrics(reg)
		return perLoad{
			cell: ServingCell{Load: load, Res: res},
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
