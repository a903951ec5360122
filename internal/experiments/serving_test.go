package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"activego/internal/driver"
	"activego/internal/exec"
	"activego/internal/metrics"
	"activego/internal/par"
	"activego/internal/platform"
)

// TestServingParallelInvariance extends the §11 determinism contract to
// the serving study: results, the printed table, the manifest's JSON
// bytes, and the metrics snapshot must be bit-identical between -j 1
// and -j 8. Load points are independent fresh platforms assembled in
// input order, so this holds by construction — and stays pinned here.
func TestServingParallelInvariance(t *testing.T) {
	serialReg := metrics.New()
	serialRes, serialTbl, err := Serving(testParams(), WithMetrics(serialReg))
	if err != nil {
		t.Fatal(err)
	}
	parReg := metrics.New()
	parRes, parTbl, err := Serving(testParams(), WithMetrics(parReg), WithPool(par.New(8)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialRes.Cells, parRes.Cells) {
		t.Errorf("serving cells differ under the pool:\nserial:   %+v\nparallel: %+v",
			serialRes.Cells, parRes.Cells)
	}
	if serialRes.MeanService != parRes.MeanService || serialRes.CapacityQPS != parRes.CapacityQPS {
		t.Errorf("serving calibration differs under the pool: %v/%v vs %v/%v",
			serialRes.MeanService, serialRes.CapacityQPS, parRes.MeanService, parRes.CapacityQPS)
	}
	if s, p := serialTbl.String(), parTbl.String(); s != p {
		t.Errorf("serving table differs under the pool:\nserial:\n%s\nparallel:\n%s", s, p)
	}
	serialMan, err := json.Marshal(serialRes.Bench(testParams()))
	if err != nil {
		t.Fatal(err)
	}
	parMan, err := json.Marshal(parRes.Bench(testParams()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialMan, parMan) {
		t.Errorf("serving manifest JSON differs under the pool (%d vs %d bytes)",
			len(serialMan), len(parMan))
	}
	if s, p := canonSnap(serialReg.Snapshot()), canonSnap(parReg.Snapshot()); !reflect.DeepEqual(s, p) {
		t.Errorf("serving metrics snapshot differs under the pool:\nserial:   %+v\nparallel: %+v", s, p)
	}
	var serialJSON, parJSON bytes.Buffer
	if err := serialRes.Rec.WriteChrome(&serialJSON); err != nil {
		t.Fatal(err)
	}
	if err := parRes.Rec.WriteChrome(&parJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialJSON.Bytes(), parJSON.Bytes()) {
		t.Errorf("serving trace JSON differs under the pool (%d vs %d bytes)",
			serialJSON.Len(), parJSON.Len())
	}
}

// TestServingStudyShape pins the study's documented structure: one cell
// per load point, tenant rows matching the spec population, closed
// accounting per cell, and fairness within (0, 1].
func TestServingStudyShape(t *testing.T) {
	res, tbl, err := Serving(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(ServingLoads) {
		t.Fatalf("got %d cells, want %d", len(res.Cells), len(ServingLoads))
	}
	for _, cell := range res.Cells {
		if got, want := len(cell.Res.Tenants), len(ServingTenants); got != want {
			t.Errorf("load %.2f: %d tenant rows, want %d", cell.Load, got, want)
		}
		if cell.Res.Completed+cell.Res.Failed+cell.Res.Shed != cell.Res.Offered {
			t.Errorf("load %.2f: accounting leak: %d+%d+%d != %d", cell.Load,
				cell.Res.Completed, cell.Res.Failed, cell.Res.Shed, cell.Res.Offered)
		}
		if f := cell.Res.Fairness; !(f > 0 && f <= 1.0000001) {
			t.Errorf("load %.2f: fairness %v out of (0,1]", cell.Load, f)
		}
	}
	if res.CapacityQPS <= 0 || res.MeanService <= 0 {
		t.Errorf("calibration not positive: capacity %v, mean service %v",
			res.CapacityQPS, res.MeanService)
	}
	if tbl.String() == "" {
		t.Error("empty serving table")
	}
}

// TestServingOverridesMeanOneThing pins that the serving flags mean the
// same on every command, because every command builds its traffic
// through ServingCalibrate and ServingTraffic. It runs one set of checks
// over three template lists: the study's, an activego-style pair over one
// workload, and csdsim's device shapes. Synthetic scenarios stand in for
// the compiled workloads, since the builder reads scenarios only by name.
func TestServingOverridesMeanOneThing(t *testing.T) {
	scenarios := map[string]*driver.Scenario{
		"point-read": driver.Synthetic("point-read", 4, 5e5, 1<<18),
		"scan":       driver.Synthetic("scan", 8, 4e6, 1<<22),
	}
	for _, name := range servingPrograms.Names {
		scenarios[name] = driver.Synthetic(name, 6, 1e6, 1<<20)
	}
	poisson := driver.Arrival{Process: driver.Poisson}
	workload := []driver.Weighted{{Name: "tpch-6", Weight: 1}}
	activego := []ServingTenantSpec{
		{Name: "tenant0", Weights: workload, Arrival: poisson},
		{Name: "tenant1", Weights: workload, Arrival: poisson},
	}
	csdsim := []ServingTenantSpec{
		{Name: "points0", Weights: []driver.Weighted{{Name: "point-read", Weight: 4}, {Name: "scan", Weight: 1}}, Arrival: poisson},
		{Name: "scans", Weights: []driver.Weighted{{Name: "scan", Weight: 1}}, Arrival: poisson},
	}
	lists := []struct {
		name      string
		templates []ServingTenantSpec
	}{{"study", ServingTenants}, {"activego", activego}, {"csdsim", csdsim}}

	for _, l := range lists {
		build := func(ov ServingOverrides) ([]driver.TenantConfig, float64, float64) {
			t.Helper()
			solo, err := ServingCalibrate(l.templates, scenarios, ov)
			if err != nil {
				t.Fatal(err)
			}
			tenants, horizon, err := ServingTraffic(l.templates, scenarios, ov, ov.Capacity(solo), solo)
			if err != nil {
				t.Fatal(err)
			}
			return tenants, horizon, solo
		}

		tenants, _, _ := build(ServingOverrides{Arrival: "bursty"})
		for i, tc := range tenants {
			own := l.templates[i].Arrival
			if tc.Arrival.Process != driver.Bursty || tc.Arrival.BurstFactor <= 1 {
				t.Errorf("%s: -arrival bursty left %s at %s, burst factor %v", l.name, tc.Name, tc.Arrival.Process, tc.Arrival.BurstFactor)
			}
			if own.BurstFactor != 0 && (tc.Arrival.BurstFactor != own.BurstFactor || tc.Arrival.DutyCycle != own.DutyCycle) {
				t.Errorf("%s: %s lost its own burst shape %v/%v", l.name, tc.Name, own.BurstFactor, own.DutyCycle)
			}
		}

		tenants, _, solo := build(ServingOverrides{Arrival: "closed"})
		for _, tc := range tenants {
			if a := tc.Arrival; a.Process != driver.Closed || a.Workers != ServingMaxInFlight+2 || a.Think != solo/2 {
				t.Errorf("%s: -arrival closed gave %s %+v, want %d workers thinking %v", l.name, tc.Name, a, ServingMaxInFlight+2, solo/2)
			}
		}

		const n = 7
		tenants, _, _ = build(ServingOverrides{Tenants: n})
		names := map[string]bool{}
		for i, tc := range tenants {
			tmpl := l.templates[i%len(l.templates)]
			names[tc.Name] = true
			if !strings.HasPrefix(tc.Name, tmpl.Name) || tc.Arrival.Process != tmpl.Arrival.Process {
				t.Errorf("%s: -tenants %d: tenant %d is %s (%s), want a %s (%s)", l.name, n, i, tc.Name, tc.Arrival.Process, tmpl.Name, tmpl.Arrival.Process)
			}
		}
		if len(tenants) != n || len(names) != n {
			t.Errorf("%s: -tenants %d built %d tenants with %d distinct names", l.name, n, len(tenants), len(names))
		}

		tenants, horizon, _ := build(ServingOverrides{QPS: 100, Duration: 0.5})
		for _, tc := range tenants {
			if tc.Arrival.QPS != 100/float64(len(l.templates)) || horizon != 0.5 {
				t.Errorf("%s: -qps 100 -duration 0.5 gave %s %v req/s over %vs", l.name, tc.Name, tc.Arrival.QPS, horizon)
			}
		}
	}
	if ServingTenants[0].Arrival.Process != driver.Poisson || ServingTenants[0].Arrival.BurstFactor != 0 {
		t.Errorf("overrides wrote through to the study's templates: %+v", ServingTenants[0].Arrival)
	}

	// The default activego population: exactly tenant0 and tenant1,
	// Poisson, splitting the calibrated capacity over the request
	// target's horizon.
	solo, err := ServingCalibrate(activego, scenarios, ServingOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	sc := scenarios["tpch-6"]
	run, err := exec.Run(platform.Default(), sc.Trace, sc.ReplayOptions())
	if err != nil {
		t.Fatal(err)
	}
	if solo != run.Duration {
		t.Errorf("calibrated solo %v, want the warm solo replay's %v", solo, run.Duration)
	}
	qps := ServingOverrides{}.Capacity(solo)
	tenants, horizon, err := ServingTraffic(activego, scenarios, ServingOverrides{}, qps, solo)
	if err != nil {
		t.Fatal(err)
	}
	if qps != ServingMaxInFlight/solo || horizon != ServingRequestTarget/qps {
		t.Errorf("capacity %v over %vs, want %v over %vs", qps, horizon, ServingMaxInFlight/solo, ServingRequestTarget/qps)
	}
	if len(tenants) != 2 {
		t.Fatalf("default activego population has %d tenants, want 2", len(tenants))
	}
	for i, tc := range tenants {
		if want := fmt.Sprintf("tenant%d", i); tc.Name != want || tc.Arrival != (driver.Arrival{Process: driver.Poisson, QPS: qps / 2}) {
			t.Errorf("tenant %d is %s %+v, want %s poisson at %v req/s", i, tc.Name, tc.Arrival, want, qps/2)
		}
	}
}
