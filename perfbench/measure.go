package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stamp is one reading of the host clocks: wall time, this process's CPU
// time over all threads, and the Go heap's cumulative allocation.
type stamp struct {
	wall  time.Time
	cpu   float64 // user+system seconds, from getrusage
	alloc uint64  // runtime.MemStats.TotalAlloc
	gcs   uint32  // runtime.MemStats.NumGC
}

func readStamp() stamp {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return stamp{wall: time.Now(), cpu: cpuSeconds(), alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

// cpuSeconds is the process's user+system CPU time over all threads, so
// it counts the garbage collector's background workers too and excludes
// time the hypervisor stole.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF): %v", err)) // fails only on a bad argument
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// opCost is the host cost of one op between two stamps.
type opCost struct {
	wall, cpu float64
	allocMB   float64
	gcs       float64
}

func costBetween(a, b stamp) opCost {
	return opCost{
		wall:    b.wall.Sub(a.wall).Seconds(),
		cpu:     b.cpu - a.cpu,
		allocMB: float64(b.alloc-a.alloc) / 1e6,
		gcs:     float64(b.gcs - a.gcs),
	}
}

// stealSeconds reads the machine's cumulative hypervisor steal time, over
// all CPUs, from /proc/stat. It returns ok=false where the file or the
// field is missing; steal is then reported as zero.
func stealSeconds() (float64, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, false
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0, false
	}
	const userHZ = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return ticks / userHZ, true
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// nearestRank is the exact nearest-rank q-quantile of xs.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in the order they were set, for the
// human-readable listing; the JSON line is keyed by name.
type report struct {
	names []string
	vals  map[string]metric
	notes map[string]string
}

func newReport() *report {
	return &report{vals: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = metric{Value: v, Unit: unit}
}

// note attaches a human-readable qualifier (an op count, a quantile
// method) to a metric's listing line.
func (r *report) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}
