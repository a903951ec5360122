// Command csdsim exercises the simulated computational storage device
// directly: block reads/writes through the NVMe queue pair, CSD function
// calls, flash garbage collection, and the performance counters the
// ActivePy runtime consumes. Useful for inspecting the substrate without
// the language stack on top.
//
// Usage:
//
//	csdsim [-read-mb N] [-write-mb N] [-calls N] [-availability F]
//	       [-fault-rate F] [-fault-seed N] [-retry-timeout S]
//	       [-trace out.json] [-tracesummary] [-metrics out.json]
//	       [-pprof cpu.pb] [-memprofile mem.pb]
//	csdsim -chaos N [-chaos-seed S]  # N randomized device-level fault schedules
//	csdsim -serve [-tenants N] [-arrival P] [-qps Q] [-duration D]
//
// Linting and plan provenance live on the language binary: `activego
// vet` and `activego explain`.
package main

import (
	"flag"
	"fmt"
	"os"

	"activego/internal/chaos"
	"activego/internal/cliutil"
	"activego/internal/csd"
	"activego/internal/driver"
	"activego/internal/experiments"
	"activego/internal/fault"
	"activego/internal/nvme"
	"activego/internal/platform"
	"activego/internal/sim"
)

func main() {
	readMB := flag.Int64("read-mb", 64, "stream this many MB from the device to the host")
	writeMB := flag.Int64("write-mb", 16, "stream this many MB from the host to the device")
	calls := flag.Int("calls", 8, "CSD function invocations through the call queue")
	avail := flag.Float64("availability", 1.0, "CSE availability fraction")
	faultRate := flag.Float64("fault-rate", 0, "per-roll probability of NVMe completion drops and transient flash errors")
	faultSeed := flag.Uint64("fault-seed", 1, "fault plan seed (same seed + same flags = identical run)")
	retryTimeout := flag.Float64("retry-timeout", 0.05, "host completion timer, seconds (with -fault-rate > 0)")
	chaosN := flag.Int("chaos", 0, "run N randomized device-level fault schedules instead of the benchmark")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for the -chaos schedule sweep")
	serve := flag.Bool("serve", false, "drive a multi-tenant serving run of synthetic device requests (DESIGN.md §14) instead of the benchmark")
	obs := cliutil.Register(flag.CommandLine)
	srv := cliutil.RegisterServing(flag.CommandLine)
	flag.Parse()

	if *chaosN > 0 {
		os.Exit(runDeviceChaos(*chaosN, *chaosSeed, *retryTimeout))
	}
	if *serve {
		if err := runDeviceServe(obs, *srv, *faultSeed, *faultRate, *retryTimeout); err != nil {
			fail(err)
		}
		return
	}

	if err := obs.Start(); err != nil {
		fail(err)
	}
	p := platform.Default()
	if *avail < 1 {
		p.Dev.SetAvailability(*avail)
	}
	if rec := obs.Recorder(); rec != nil {
		p.SetRecorder(rec)
	}
	installFaults(p, *faultSeed, *faultRate, *retryTimeout)
	g := p.Dev.Array.Geometry()
	fmt.Printf("CSD: %d CSE cores @%.2fe9 units/s, %.1f TB flash (%d ch x %d dies), array %.2f GB/s, link %.2f GB/s\n",
		p.Cfg.CSD.CSECores, p.Cfg.CSD.CSERate/1e9,
		float64(g.TotalBytes())/(1<<40), g.Channels, g.DiesPerChan,
		g.EffectiveReadBW()/1e9, p.Cfg.Inter.D2HBandwidth/1e9)

	obj := "bench-object"
	p.Dev.Store.Preload(obj, *readMB<<20)

	// Host-side streaming read through the queue pair.
	start := p.Sim.Now()
	var end sim.Time
	p.Host.ReadObject(p.Dev, obj, 0, *readMB<<20, func(c nvme.Completion) { end = c.Completed })
	p.Sim.Run()
	dur := end - start
	fmt.Printf("read  %4d MB: %8.3f ms  (%.2f GB/s effective)\n",
		*readMB, dur*1e3, float64(*readMB<<20)/dur/1e9)

	// Host-side write.
	start = p.Sim.Now()
	p.Host.WriteObject(p.Dev, obj, 0, *writeMB<<20, func(c nvme.Completion) { end = c.Completed })
	p.Sim.Run()
	dur = end - start
	fmt.Printf("write %4d MB: %8.3f ms  (%.2f GB/s effective)\n",
		*writeMB, dur*1e3, float64(*writeMB<<20)/dur/1e9)

	// Function calls through the call queue: each burns 1M work units on
	// the CSE, reporting service latency.
	const callWork = 1e6
	var totalLat float64
	done := 0
	start = p.Sim.Now()
	for i := 0; i < *calls; i++ {
		p.Host.Call(p.Dev, csd.Call(func(d *csd.Device, _ int64, finish func(uint16, any)) {
			d.CSE.Submit(callWork, func(_, _ sim.Time) { finish(0, nil) })
		}), 0, func(c nvme.Completion) {
			totalLat += c.Completed - c.Submitted
			done++
		})
	}
	p.Sim.Run()
	if done != *calls {
		fmt.Fprintf(os.Stderr, "csdsim: %d/%d calls completed\n", done, *calls)
		os.Exit(1)
	}
	fmt.Printf("calls %4d x %.0f units: mean latency %.3f us (wall %.3f ms)\n",
		*calls, callWork, totalLat/float64(*calls)*1e6, (p.Sim.Now()-start)*1e3)

	retired, rate := p.Dev.PerfCounters()
	reads, programs, erases, rb, wb := p.Dev.Array.Stats()
	gcRuns, moved, free := p.Dev.FTL.Stats()
	sub, comp := p.Dev.QP.Stats()
	fmt.Printf("perf counters: retired=%.3g units, effective rate=%.3g units/s/core\n", retired, rate)
	fmt.Printf("array: %d reads / %d programs / %d erases, %.1f MB read, %.1f MB programmed\n",
		reads, programs, erases, rb/(1<<20), wb/(1<<20))
	fmt.Printf("ftl: %d GC runs, %d pages moved, %d free blocks; nvme: %d submitted, %d completed\n",
		gcRuns, moved, free, sub, comp)
	if *faultRate > 0 {
		timeouts, retries, droppedC, lostC, aborted := p.Dev.QP.FaultStats()
		corrected, uecc := p.Dev.Array.FaultStats()
		fmt.Printf("faults: %d timeouts, %d retries, %d dropped CQEs, %d lost SQEs, %d aborted; flash %d corrected / %d uncorrectable\n",
			timeouts, retries, droppedC, lostC, aborted, corrected, uecc)
	}
	fmt.Printf("events fired: %d; simulated time: %.3f ms\n", p.Sim.EventsFired(), p.Sim.Now()*1e3)

	p.FoldMetrics(obs.Registry())
	if err := obs.Finish(os.Stdout); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "csdsim:", err)
	os.Exit(1)
}

// installFaults arms the device fault plan behind -fault-rate on p:
// NVMe completion drops and transient flash errors at rate, lost
// commands at half of it, and the host's completion timer to recover
// them. Rate 0 arms nothing.
func installFaults(p *platform.Platform, seed uint64, rate, retryTimeout float64) {
	if rate <= 0 {
		return
	}
	p.InstallFaults(fault.NewPlan(seed,
		fault.Rule{Point: fault.NVMeCompletionDrop, Rate: rate},
		fault.Rule{Point: fault.NVMeCommandLoss, Rate: rate / 2},
		fault.Rule{Point: fault.FlashTransient, Rate: rate},
	), nvme.RetryPolicy{Timeout: retryTimeout, MaxAttempts: 4, Backoff: 1e-3})
}

// runDeviceChaos is the -chaos mode: N randomized seeded fault
// schedules (the same generator the chaos harness sweeps) driven
// against the bare device — a streaming read plus a batch of CSD calls
// per schedule, with the host retry machinery armed. The invariant is
// the device-level half of the chaos contract: every submitted command
// reaches a completion (OK or a real error status — never a hang) and
// the calendar drains. Exit 1 if any schedule violates it.
func runDeviceChaos(n int, seed uint64, retryTimeout float64) int {
	params := chaos.ScheduleParams{MaxRate: 0.7, Horizon: 10 * retryTimeout}
	retry := nvme.RetryPolicy{Timeout: retryTimeout, MaxAttempts: 3, Backoff: retryTimeout / 8}
	const readMB, nCalls = 2, 4
	violations, faulted := 0, 0
	for i := 0; i < n; i++ {
		rules := chaos.Schedule(seed, i, params)
		plan, err := fault.NewPlanChecked(fault.Mix64(seed^uint64(i)), rules...)
		if err != nil {
			fmt.Printf("schedule %3d: VIOLATION: generator emitted invalid rules: %v\n", i, err)
			violations++
			continue
		}
		p := platform.Default()
		p.InstallFaults(plan, retry)
		obj := "chaos-object"
		p.Dev.Store.Preload(obj, readMB<<20)
		want := 1 + nCalls
		completed, failedStatus := 0, 0
		note := func(c nvme.Completion) {
			completed++
			if c.Status != 0 {
				failedStatus++
			}
		}
		p.Host.ReadObject(p.Dev, obj, 0, readMB<<20, note)
		for k := 0; k < nCalls; k++ {
			p.Host.Call(p.Dev, csd.Call(func(d *csd.Device, _ int64, finish func(uint16, any)) {
				d.CSE.Submit(1e6, func(_, _ sim.Time) { finish(0, nil) })
			}), 0, note)
		}
		p.Sim.Run()
		resets, stalls := p.Dev.FaultStats()
		timeouts, _, _, _, _ := p.Dev.QP.FaultStats()
		switch {
		case completed != want:
			fmt.Printf("schedule %3d: VIOLATION: %d/%d commands completed (%d rules, dark until t=%.3fms)\n",
				i, completed, want, len(rules), p.Dev.ResetUntil()*1e3)
			violations++
		case p.Drained() != nil:
			fmt.Printf("schedule %3d: VIOLATION: %v\n", i, p.Drained())
			violations++
		default:
			if failedStatus > 0 || timeouts > 0 || resets > 0 || stalls > 0 {
				faulted++
			}
		}
	}
	fmt.Printf("chaos: %d device schedules, %d with observable faults, %d violations\n", n, faulted, violations)
	if violations > 0 {
		return 1
	}
	return 0
}

// runDeviceServe is the -serve mode: the multi-tenant serving driver
// pointed at the bare device, with driver.Synthetic request shapes
// instead of compiled workloads — a point-read-heavy tenant, points0,
// plus a scan tenant, scans — so admission control and fairness can be
// inspected on the substrate without the language stack on top. The
// serving study's calibration and builder resolve the rest, so the
// offered rate is the shapes' calibrated capacity and the serving flags
// mean what they mean on every command. -fault-rate arms the same fault
// plan as the benchmark path underneath the traffic.
func runDeviceServe(obs *cliutil.Flags, srv experiments.ServingOverrides,
	seed uint64, faultRate, retryTimeout float64) error {
	if err := obs.Start(); err != nil {
		return err
	}
	point := driver.Synthetic("point-read", 4, 5e5, 1<<18)
	scan := driver.Synthetic("scan", 8, 4e6, 1<<22)
	scenarios := map[string]*driver.Scenario{point.Name: point, scan.Name: scan}
	poisson := driver.Arrival{Process: driver.Poisson}
	templates := []experiments.ServingTenantSpec{
		{Name: "points0", Weights: []driver.Weighted{{Name: point.Name, Weight: 4}, {Name: scan.Name, Weight: 1}}, Arrival: poisson},
		{Name: "scans", Weights: []driver.Weighted{{Name: scan.Name, Weight: 1}}, Arrival: poisson},
	}
	solo, err := experiments.ServingCalibrate(templates, scenarios, srv)
	if err != nil {
		return err
	}
	qps := srv.Capacity(solo)
	tenants, horizon, err := experiments.ServingTraffic(templates, scenarios, srv, qps, solo)
	if err != nil {
		return err
	}
	p := platform.Default()
	if rec := obs.Recorder(); rec != nil {
		p.SetRecorder(rec)
	}
	installFaults(p, seed, faultRate, retryTimeout)
	fmt.Printf("serving synthetic device traffic: %d tenants, %s arrivals, %.1f req/s offered over %.4fs\n",
		len(tenants), tenants[0].Arrival.Process, qps, horizon)
	res, err := driver.Run(p, driver.Config{
		Seed: seed, Duration: horizon, Tenants: tenants,
		MaxInFlight: experiments.ServingMaxInFlight, MaxQueue: experiments.ServingMaxQueue,
		Metrics: obs.Registry(),
	})
	if err != nil {
		return err
	}
	cliutil.PrintServing(os.Stdout, res)
	retired, rate := p.Dev.PerfCounters()
	fmt.Printf("perf counters: retired=%.3g units, effective rate=%.3g units/s/core; events fired: %d\n",
		retired, rate, p.Sim.EventsFired())
	p.FoldMetrics(obs.Registry())
	return obs.Finish(os.Stdout)
}
