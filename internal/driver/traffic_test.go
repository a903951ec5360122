package driver_test

import (
	"fmt"
	"strings"
	"testing"

	"activego/internal/driver"
	"activego/internal/metrics"
	"activego/internal/nvme"
	"activego/internal/obs"
	"activego/internal/platform"
	"activego/internal/resilience"
)

// TestServedTrafficIsCountedOnce holds the served requests' exec
// counters to the machine's own. Each request counts the link bytes,
// status updates, completion-timer expiries and NVMe re-issues its own
// line attempts caused, so over a run, with the traffic of device runs
// that outlived their attempts (exec.abandoned.*), they equal what the
// link, the device and the queue pair counted, however many requests
// overlapped. The cells are MaxInFlight 1, 4 and 8 under every arrival
// process, fault-free and under the chaos leg's schedules, plus a CSE
// sag under tight deadlines that abandons device runs.
func TestServedTrafficIsCountedOnce(t *testing.T) {
	type schedule struct {
		name string
		arm  func(p *platform.Platform) *resilience.Policy
	}
	schedules := []schedule{{"fault-free", func(*platform.Platform) *resilience.Policy { return nil }}}
	for i := 0; i < chaosSchedules; i++ {
		schedules = append(schedules, schedule{fmt.Sprintf("chaos%d", i), func(p *platform.Platform) *resilience.Policy { return armChaos(t, p, i) }})
	}
	for _, inFlight := range []int{1, 4, 8} {
		for _, proc := range []driver.Process{driver.Poisson, driver.Bursty, driver.Uniform, driver.Closed} {
			for _, sc := range schedules {
				name := fmt.Sprintf("%d/%s/%s", inFlight, proc, sc.name)
				p := platform.Default()
				cfg := trafficConfig(t, proc, inFlight)
				cfg.Resilience = sc.arm(p)
				if lost := checkServedTraffic(t, name, p, cfg); lost != 0 && sc.name == "fault-free" {
					t.Errorf("%s: a fault-free run abandoned %v link bytes", name, lost)
				}
			}
		}
	}
	// A sag to a tenth of the CSE with completion timers and deadlines
	// well under the sagged service time.
	p := platform.Default()
	p.Dev.ScheduleStress(2e-3, 0.1, 10e-3)
	p.Dev.QP.SetRetryPolicy(nvme.RetryPolicy{Timeout: 0.5e-3, MaxAttempts: 3, Backoff: 0.1e-3})
	cfg := trafficConfig(t, driver.Poisson, 4)
	cfg.Resilience = &resilience.Policy{
		LineDeadline: 1e-3,
		LineRetries:  1,
		Backoff:      resilience.Backoff{Base: 0.1e-3, Factor: 2, Cap: 1e-3, Jitter: 0.25, Seed: 3},
		Breaker:      resilience.BreakerPolicy{Threshold: 3, Cooldown: 2e-3},
	}
	if lost := checkServedTraffic(t, "sag", p, cfg); lost == 0 {
		t.Error("sag: no device run outlived its attempt; the cell must abandon traffic")
	}
}

// trafficConfig is one tenant of the synthetic mix at a rate that
// overlaps requests at every MaxInFlight above 1.
func trafficConfig(t testing.TB, proc driver.Process, inFlight int) driver.Config {
	return driver.Config{
		Seed:     42,
		Duration: 0.02,
		Tenants: []driver.TenantConfig{{
			Name: "t", Mix: testMix(t),
			Arrival: driver.Arrival{Process: proc, QPS: 4000, BurstFactor: 4, Period: 5e-3, Workers: 2 * inFlight, Think: 1e-4},
		}},
		MaxInFlight: inFlight,
	}
}

// checkServedTraffic serves cfg on p with a registry and an obs
// collector attached, checks the traffic identities, and returns the
// abandoned link bytes.
func checkServedTraffic(t *testing.T, name string, p *platform.Platform, cfg driver.Config) (abandoned float64) {
	t.Helper()
	reg, col := metrics.New(), obs.NewCollector(cfg.Duration, 0)
	cfg.Metrics, cfg.Obs = reg, col
	link0 := p.Topo.D2H.TotalBytes()
	_, status0 := p.Dev.Stats()
	timeouts0, reissues0, _, _, _ := p.Dev.QP.FaultStats()
	res, err := driver.Run(p, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	_, status := p.Dev.Stats()
	timeouts, reissues, _, _, _ := p.Dev.QP.FaultStats()
	count := func(m string) float64 { return reg.Counter(m).Value() }
	abandoned = count(metrics.MetricExecAbandonedD2HBytes)
	for _, id := range []struct {
		what      string
		got, want float64
	}{
		{"link bytes", count(metrics.MetricExecD2HBytes) + abandoned, p.Topo.D2H.TotalBytes() - link0},
		{"status messages", count(metrics.MetricExecStatusMsgs) + count(metrics.MetricExecAbandonedStatusMsgs), float64(status - status0)},
		{"timeouts", count(metrics.MetricExecTimeouts), float64(timeouts - timeouts0)},
		{"NVMe re-issues", count(metrics.MetricExecRetries) - seriesSum(col, "retries"), float64(reissues - reissues0)},
		{"observed line bytes", seriesSum(col, "d2h.bytes"), count(metrics.MetricExecD2HBytes)},
	} {
		if id.got != id.want {
			t.Errorf("%s: %s: the requests count %v, the machine %v (%+v)", name, id.what, id.got, id.want, res)
		}
	}
	t.Logf("%s: offered %d queued %d shed %d failed %d; abandoned %v B", name, res.Offered, res.Tenants[0].Queued, res.Shed, res.Failed, abandoned)
	return abandoned
}

// seriesSum sums every window of every line<N>.<kind> series col holds.
func seriesSum(col *obs.Collector, kind string) float64 {
	var sum float64
	for _, name := range col.Windows().Names() {
		if strings.HasPrefix(name, "line") && strings.HasSuffix(name, "."+kind) {
			for _, w := range col.Windows().Stats(name) {
				sum += w.Sum
			}
		}
	}
	return sum
}
