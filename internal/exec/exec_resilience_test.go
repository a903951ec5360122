package exec

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"activego/internal/codegen"
	"activego/internal/fault"
	"activego/internal/inputs"
	"activego/internal/lang/interp"
	"activego/internal/lang/parser"
	"activego/internal/lang/value"
	"activego/internal/metrics"
	"activego/internal/nvme"
	"activego/internal/platform"
	"activego/internal/resilience"
	"activego/internal/trace"
)

// ladderSrc has enough offloaded lines for the breaker to open, degrade,
// probe, and re-close within one run. Every line is a full-size storage
// load, so line cost is uniform on each unit — that keeps the
// open/deny/probe cadence stable against the cooldown clock.
const ladderSrc = `v1 = load("v1")
v2 = load("v2")
v3 = load("v3")
v4 = load("v4")
v5 = load("v5")
v6 = load("v6")
v7 = load("v7")
v8 = load("v8")
`

// ladderTrace is traceFor for ladderSrc's eight distinct inputs.
func ladderTrace(t *testing.T, n int) *interp.Trace {
	t.Helper()
	reg := inputs.NewRegistry()
	for i := 1; i <= 8; i++ {
		reg.Add(fmt.Sprintf("v%d", i), value.NewVec(make([]float64, n)), inputs.ModeRows)
	}
	prog, err := parser.Parse(ladderSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := interp.Run(prog, reg.Context(1))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// An invalid policy must be rejected before the simulation starts.
func TestResilienceInvalidPolicyRejected(t *testing.T) {
	tr := traceFor(t, scanSrc, 1<<12)
	pol := ladderPolicy(1)
	pol.LineDeadline = -1
	_, err := Run(platform.Default(), tr, Options{
		Backend: codegen.Native, Partition: codegen.NewPartition(1, 2, 3),
		UseCallQueue: true, Resilience: &pol,
	})
	if err == nil {
		t.Fatal("negative LineDeadline accepted")
	}
}

// breakerRun drives the full open -> degrade -> half-open probe -> close
// cycle: the first two call completions vanish, so consecutive CSD
// failures trip the breaker; records arriving inside the cooldown are
// denied and degrade to the host; the drop budget is then spent, so the
// first probe after the cooldown succeeds and re-admits offload for the
// rest of the run.
func breakerRun(t *testing.T, rec *trace.Recorder, m *metrics.Registry) *Result {
	t.Helper()
	tr := ladderTrace(t, 1<<16)
	part := codegen.NewPartition(1, 2, 3, 4, 5, 6, 7, 8)
	opts := Options{
		Backend: codegen.Native, Partition: part,
		UseCallQueue: true, OverheadScale: 1e-6,
	}
	hostOnly, err := Run(platform.Default(), tr, Options{
		Backend: codegen.Native, Partition: codegen.NewPartition(), OverheadScale: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(platform.Default(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	hostRec := hostOnly.Duration / 8 // per-record host pace (uniform lines)

	p := platform.Default()
	if rec != nil {
		p.Sim.SetRecorder(rec)
	}
	// The timeout must clear a healthy offloaded line by a wide margin so
	// only dropped completions expire it; the first clean record bounds
	// the cost. The cooldown covers ~2.5 host-pace records, so the
	// denied/probe split lands mid-run.
	if len(clean.CSDProgress) == 0 {
		t.Fatal("clean run produced no CSD progress")
	}
	p.InstallFaults(
		fault.NewPlan(11, fault.Rule{Point: fault.NVMeCompletionDrop, Rate: 1, MaxCount: 2}),
		nvme.RetryPolicy{Timeout: 2 * clean.CSDProgress[0].Time, MaxAttempts: 1},
	)
	pol := resilience.Policy{
		LineRetries: 1,
		Backoff:     resilience.Backoff{Base: hostRec / 16, Factor: 2, Cap: hostRec / 4, Jitter: 0.25, Seed: 11},
		Breaker:     resilience.BreakerPolicy{Threshold: 2, Cooldown: 2.5 * hostRec},
	}
	ropts := opts
	ropts.Resilience = &pol
	ropts.Metrics = m
	res, err := Run(p, tr, ropts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBreakerOpensDegradesAndRecloses(t *testing.T) {
	res := breakerRun(t, nil, nil)
	if res.BreakerOpens < 1 {
		t.Fatalf("breaker never opened: %+v", res)
	}
	if res.BreakerCloses < 1 {
		t.Fatalf("breaker never re-closed — recovery must be bidirectional: %+v", res)
	}
	if res.BreakerProbes < res.BreakerCloses {
		t.Errorf("probes %d < closes %d", res.BreakerProbes, res.BreakerCloses)
	}
	if res.DegradedLines == 0 {
		t.Error("no lines degraded to the host while the breaker was open")
	}
	if res.RecordsOnHost == 0 || res.RecordsOnCSD == 0 {
		t.Errorf("records CSD=%d host=%d: the run must straddle the outage", res.RecordsOnCSD, res.RecordsOnHost)
	}
	if got, want := res.RecordsOnCSD+res.RecordsOnHost, 8; got != want {
		t.Errorf("%d of %d records accounted for", got, want)
	}
	if res.Migrated {
		t.Error("breaker degradation must not masquerade as a §III-D migration")
	}
}

// The breaker cycle must be bit-deterministic and its transitions must
// land on the trace fault lane and in the metrics registry.
func TestBreakerCycleDeterministicAndObserved(t *testing.T) {
	first := breakerRun(t, nil, nil)
	rec := trace.New()
	m := metrics.New()
	again := breakerRun(t, rec, m)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("breaker run diverged:\nfirst %+v\nagain %+v", first, again)
	}

	instants := map[string]int{}
	for _, in := range rec.Instants() {
		instants[in.Name]++
	}
	if instants["breaker-open"] != int(first.BreakerOpens) {
		t.Errorf("breaker-open instants %d, want %d", instants["breaker-open"], first.BreakerOpens)
	}
	if instants["breaker-probe"] != int(first.BreakerProbes) {
		t.Errorf("breaker-probe instants %d, want %d", instants["breaker-probe"], first.BreakerProbes)
	}
	if instants["breaker-close"] != int(first.BreakerCloses) {
		t.Errorf("breaker-close instants %d, want %d", instants["breaker-close"], first.BreakerCloses)
	}
	var states *trace.Series
	for _, s := range rec.Counters() {
		if s.Name == metrics.SeriesExecBreakerState {
			states = s
		}
	}
	if states == nil {
		t.Fatal("no exec.breaker_state samples recorded")
	}
	if got, want := len(states.Samples), int(first.BreakerOpens+first.BreakerProbes+first.BreakerCloses); got != want {
		t.Errorf("breaker state samples %d, want one per transition (%d)", got, want)
	}

	if got := m.Counter(metrics.MetricExecBreakerOpens).Value(); got != float64(first.BreakerOpens) {
		t.Errorf("metric %s = %v, want %d", metrics.MetricExecBreakerOpens, got, first.BreakerOpens)
	}
	if got := m.Counter(metrics.MetricExecBreakerCloses).Value(); got != float64(first.BreakerCloses) {
		t.Errorf("metric %s = %v, want %d", metrics.MetricExecBreakerCloses, got, first.BreakerCloses)
	}
	if got := m.Counter(metrics.MetricExecDegradedLines).Value(); got != float64(first.DegradedLines) {
		t.Errorf("metric %s = %v, want %d", metrics.MetricExecDegradedLines, got, first.DegradedLines)
	}
}

// A per-line deadline must abandon a stalled offloaded call and recover
// through the ladder — even with no NVMe retry supervision armed at all.
func TestDeadlineMissRecoversViaLadder(t *testing.T) {
	tr := traceFor(t, scanSrc, 1<<14)
	p := platform.Default()
	// The first CSD call stalls for a full second; nothing else fails.
	p.InstallFaults(fault.NewPlan(3,
		fault.Rule{Point: fault.CSEStall, Rate: 1, Duration: 1, MaxCount: 1},
	), nvme.RetryPolicy{})
	pol := resilience.Policy{
		LineDeadline: 5e-3,
		LineRetries:  1,
		Backoff:      resilience.Backoff{Base: 1e-4, Factor: 2, Cap: 1e-3, Jitter: 0.25, Seed: 3},
		Breaker:      resilience.BreakerPolicy{Threshold: 3, Cooldown: 10e-3},
	}
	res, err := Run(p, tr, Options{
		Backend: codegen.Native, Partition: codegen.NewPartition(1, 2, 3),
		UseCallQueue: true, OverheadScale: 1e-6, Resilience: &pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 1 {
		t.Errorf("DeadlineMisses %d, want 1", res.DeadlineMisses)
	}
	if res.FailedCalls != 1 {
		t.Errorf("FailedCalls %d, want 1", res.FailedCalls)
	}
	if res.Retries < 1 {
		t.Errorf("Retries %d, want >= 1 (the line re-post)", res.Retries)
	}
	if res.RecordsOnCSD != 3 {
		t.Errorf("RecordsOnCSD %d, want 3 — the retried line must land back on the CSD", res.RecordsOnCSD)
	}
	if res.BreakerOpens != 0 {
		t.Errorf("one miss below threshold opened the breaker: %+v", res)
	}
}

// When every rung fails — storage is uncorrectable on the CSD and on the
// host — the run must end with a typed shed error, never a hang or a
// silent wrong answer: under every posture, a one-shot failover whose
// host rung fails too included.
func TestExhaustedLadderShedsTypedError(t *testing.T) {
	tr := traceFor(t, scanSrc, 1<<14)
	for _, tc := range postures() {
		t.Run(tc.name, func(t *testing.T) {
			p := platform.Default()
			p.InstallFaults(fault.NewPlan(5,
				fault.Rule{Point: fault.FlashUncorrectable, Rate: 1},
			), nvme.RetryPolicy{Timeout: 50e-3, MaxAttempts: 4, Backoff: 1e-3})
			m := metrics.New()
			_, err := Run(p, tr, Options{
				Backend: codegen.Native, Partition: codegen.NewPartition(1, 2, 3),
				UseCallQueue: true, OverheadScale: 1e-6, Resilience: &tc.pol, Metrics: m,
			})
			if err == nil {
				t.Fatal("uncorrectable storage surfaced as success")
			}
			var shed *resilience.ShedError
			if !errors.As(err, &shed) {
				t.Fatalf("error is not a *resilience.ShedError: %v", err)
			}
			if shed.Record != 0 || shed.Line != 1 {
				t.Errorf("shed names record %d line %d, want 0/1 (the load)", shed.Record, shed.Line)
			}
			if shed.Cause == nil {
				t.Error("shed error lost its cause")
			}
			if got := m.Counter(metrics.MetricExecSheds).Value(); got != 1 {
				t.Errorf("metric %s = %v, want 1", metrics.MetricExecSheds, got)
			}
		})
	}
}
