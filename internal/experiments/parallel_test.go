package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"activego/internal/metrics"
	"activego/internal/par"
	"activego/internal/workloads"
)

// canonSnap strips the wall-clock fields (sum, min, max, buckets) from
// the phase.* histograms of a snapshot: those time the host process, so
// they differ between any two runs, serial or not. Their observation
// counts — and every other instrument, all of which read simulated
// results — must stay exact.
func canonSnap(s metrics.Snapshot) metrics.Snapshot {
	for i := range s.Histograms {
		if strings.HasPrefix(s.Histograms[i].Name, "phase.") {
			s.Histograms[i] = metrics.HistogramSnap{Name: s.Histograms[i].Name, Count: s.Histograms[i].Count}
		}
	}
	return s
}

// TestParallelInvariance is the determinism contract of the whole
// parallel layer: every output a user can observe — exec results, plans,
// experiment results, report tables, benchmark manifests, trace JSON,
// metrics snapshots — must be bit-identical between -j 1 and -j 8.
func TestParallelInvariance(t *testing.T) {
	pool := par.New(8)

	// Single pipeline: Prepare (parallel sampling + planning) and the
	// execution it feeds.
	spec, ok := workloads.ByName("tpch-6")
	if !ok {
		t.Fatal("unknown workload tpch-6")
	}
	serialWb, err := Prepare(spec, testParams())
	if err != nil {
		t.Fatal(err)
	}
	parWb, err := Prepare(spec, testParams(), WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialWb.Plan, parWb.Plan) {
		t.Errorf("plan differs under the pool:\nserial:   %+v\nparallel: %+v", serialWb.Plan, parWb.Plan)
	}
	if !reflect.DeepEqual(serialWb.Profile, parWb.Profile) {
		t.Error("profile report differs under the pool")
	}
	serialRun, err := serialWb.RunActivePy(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	parRun, err := parWb.RunActivePy(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialRun, parRun) {
		t.Errorf("exec result differs under the pool:\nserial:   %+v\nparallel: %+v", serialRun, parRun)
	}

	// Experiment sweep: results, table, manifest, metrics snapshot.
	serialReg := metrics.New()
	serialRes, serialTbl, err := Fig2(testParams(), WithMetrics(serialReg))
	if err != nil {
		t.Fatal(err)
	}
	parReg := metrics.New()
	parRes, parTbl, err := Fig2(testParams(), WithMetrics(parReg), WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialRes, parRes) {
		t.Errorf("fig2 results differ under the pool:\nserial:   %+v\nparallel: %+v", serialRes, parRes)
	}
	if s, p := serialTbl.String(), parTbl.String(); s != p {
		t.Errorf("fig2 table differs under the pool:\nserial:\n%s\nparallel:\n%s", s, p)
	}
	if !reflect.DeepEqual(serialRes.Bench(testParams()), parRes.Bench(testParams())) {
		t.Error("fig2 manifest differs under the pool")
	}
	if s, p := canonSnap(serialReg.Snapshot()), canonSnap(parReg.Snapshot()); !reflect.DeepEqual(s, p) {
		t.Errorf("fig2 metrics snapshot differs under the pool:\nserial:   %+v\nparallel: %+v", s, p)
	}

	// Resilience sweep: rows, chaos report (its own fan-out rides the
	// pool), manifest, and the breaker arm's trace JSON.
	serialR, _, err := Resilience(testParams())
	if err != nil {
		t.Fatal(err)
	}
	parR, _, err := Resilience(testParams(), WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialR.Rows, parR.Rows) {
		t.Errorf("resilience rows differ under the pool:\nserial:   %+v\nparallel: %+v", serialR.Rows, parR.Rows)
	}
	if !reflect.DeepEqual(serialR.Chaos, parR.Chaos) {
		t.Errorf("chaos report differs under the pool:\nserial:   %+v\nparallel: %+v", serialR.Chaos, parR.Chaos)
	}
	if !reflect.DeepEqual(serialR.Bench(testParams()), parR.Bench(testParams())) {
		t.Error("resilience manifest differs under the pool")
	}
	var serialRJSON, parRJSON bytes.Buffer
	if err := serialR.Rec.WriteChrome(&serialRJSON); err != nil {
		t.Fatal(err)
	}
	if err := parR.Rec.WriteChrome(&parRJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialRJSON.Bytes(), parRJSON.Bytes()) {
		t.Errorf("resilience trace JSON differs under the pool (%d vs %d bytes)",
			serialRJSON.Len(), parRJSON.Len())
	}

	// Trace JSON: the utilization study records full timelines.
	serialU, _, err := Utilization(testParams())
	if err != nil {
		t.Fatal(err)
	}
	parU, _, err := Utilization(testParams(), WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	var serialJSON, parJSON bytes.Buffer
	if err := serialU.Rec.WriteChrome(&serialJSON); err != nil {
		t.Fatal(err)
	}
	if err := parU.Rec.WriteChrome(&parJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialJSON.Bytes(), parJSON.Bytes()) {
		t.Errorf("utilization trace JSON differs under the pool (%d vs %d bytes)",
			serialJSON.Len(), parJSON.Len())
	}
}
