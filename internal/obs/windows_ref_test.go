package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"activego/internal/metrics"
)

// The reference window set: Windows as it stood when every window kept
// its raw values until the run ended and Stats digested each kept
// window on every call, kept verbatim apart from the renames. The
// digest-on-close window set must report the same stats and fold to the
// same snapshot.

type refWindows struct {
	interval float64
	keep     int
	series   map[string]*refSeries
	last     int
	seen     bool
}

type refSeries struct {
	cells []refWindowCell
}

type refWindowCell struct {
	index int
	vals  []float64
}

func newRefWindows(interval float64, keep int) *refWindows {
	if interval <= 0 {
		return nil
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &refWindows{interval: interval, keep: keep, series: map[string]*refSeries{}}
}

func (w *refWindows) Observe(name string, t, v float64) {
	if w == nil {
		return
	}
	w.observe(w.lookup(name), t, v)
}

func (w *refWindows) lookup(name string) *refSeries {
	s := w.series[name]
	if s == nil {
		s = &refSeries{}
		w.series[name] = s
	}
	return s
}

func (w *refWindows) observe(s *refSeries, t, v float64) {
	idx := int(t / w.interval)
	if idx < 0 {
		idx = 0
	}
	if idx > w.last || !w.seen {
		w.last, w.seen = idx, true
	}
	if n := len(s.cells); n > 0 && s.cells[n-1].index == idx {
		s.cells[n-1].vals = append(s.cells[n-1].vals, v)
		return
	}
	s.cells = append(s.cells, refWindowCell{index: idx, vals: []float64{v}})
	if len(s.cells) > w.keep {
		s.cells = s.cells[1:]
	}
}

func (w *refWindows) Count() int {
	if w == nil || !w.seen {
		return 0
	}
	return w.last + 1
}

func (w *refWindows) Names() []string {
	if w == nil {
		return nil
	}
	names := make([]string, 0, len(w.series))
	for n := range w.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (w *refWindows) Stats(name string) []WindowStat {
	if w == nil {
		return nil
	}
	s := w.series[name]
	if s == nil {
		return nil
	}
	out := make([]WindowStat, 0, len(s.cells))
	for i := range s.cells {
		out = append(out, refStatOf(&s.cells[i]))
	}
	return out
}

func refStatOf(c *refWindowCell) WindowStat {
	sort.Float64s(c.vals)
	s := WindowStat{Window: c.index, Count: len(c.vals)}
	for _, v := range c.vals {
		s.Sum += v
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
		s.P50 = metrics.Quantile(c.vals, 0.50)
		s.P95 = metrics.Quantile(c.vals, 0.95)
		s.P99 = metrics.Quantile(c.vals, 0.99)
	}
	return s
}

func (w *refWindows) Fold(reg *metrics.Registry) {
	if w == nil || reg == nil {
		return
	}
	for _, name := range w.Names() {
		for _, s := range w.Stats(name) {
			base := fmt.Sprintf("%s%04d.%s.", metrics.ObsWindowPrefix, s.Window, name)
			reg.Gauge(base + "count").Set(float64(s.Count))
			reg.Gauge(base + "sum").Set(s.Sum)
			reg.Gauge(base + "p50").Set(s.P50)
			reg.Gauge(base + "p95").Set(s.P95)
			reg.Gauge(base + "p99").Set(s.P99)
		}
	}
	reg.Gauge(metrics.MetricObsWindows).Set(float64(w.Count()))
}

// runWindowsStream feeds one seeded stream to both window sets. Each
// step observes one value into one of a few series or reads one series'
// Stats (sometimes twice in a row, sometimes the series whose window is
// open); time only moves forward, by nothing, within a window, or past
// several windows. With checkEvery, every series' Stats is compared
// after every step, so windows close already sorted; without it only
// the stream's own reads compare, so most windows close unsorted. It
// returns the first divergence, or both Fold snapshots at the end.
func runWindowsStream(seed int64, checkEvery bool) (got, want []byte, err error) {
	rng := rand.New(rand.NewSource(seed))
	keep := []int{1, 2, 3, 0}[rng.Intn(4)]
	w, ref := NewWindows(1, keep), newRefWindows(1, keep)
	names := make([]string, 1+rng.Intn(4))
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	compare := func(step int, name string) error {
		if g, r := w.Stats(name), ref.Stats(name); !slices.Equal(g, r) {
			return fmt.Errorf("seed %d keep %d step %d: Stats(%q) = %+v, reference %+v", seed, keep, step, name, g, r)
		}
		return nil
	}
	tm := 0.0
	// Values draw from a few levels so windows hold ties, or from a
	// continuous spread; both are non-negative, like observed costs.
	ties := rng.Intn(2) == 0
	steps := 20 + rng.Intn(300)
	for step := 0; step < steps; step++ {
		switch r := rng.Float64(); {
		case r < 0.5:
		case r < 0.8:
			tm += rng.Float64() * 0.3
		case r < 0.95:
			tm += 1 + float64(rng.Intn(4)) // skips up to three windows
		default:
			tm = float64(int(tm)) + 1 // exactly on the next window's start
		}
		name := names[rng.Intn(len(names))]
		if rng.Float64() < 0.1 {
			for range 1 + rng.Intn(2) {
				if err := compare(step, name); err != nil {
					return nil, nil, err
				}
			}
		} else {
			v := rng.ExpFloat64()
			if ties {
				v = float64(rng.Intn(5)) * 0.25
			}
			w.Observe(name, tm, v)
			ref.Observe(name, tm, v)
		}
		if checkEvery {
			for _, n := range names {
				if err := compare(step, n); err != nil {
					return nil, nil, err
				}
			}
		}
		if w.Count() != ref.Count() || !slices.Equal(w.Names(), ref.Names()) {
			return nil, nil, fmt.Errorf("seed %d step %d: Count %d names %v, reference %d %v",
				seed, step, w.Count(), w.Names(), ref.Count(), ref.Names())
		}
	}
	var snaps [2]bytes.Buffer
	for i, fold := range []func(*metrics.Registry){w.Fold, ref.Fold} {
		reg := metrics.New()
		fold(reg)
		if err := reg.Snapshot().WriteJSON(&snaps[i]); err != nil {
			return nil, nil, err
		}
	}
	return snaps[0].Bytes(), snaps[1].Bytes(), nil
}

// TestWindowsMatchReference runs 1,000 seeded streams through the
// digest-on-close window set and the raw-value reference, each twice:
// comparing every series after every step, and comparing only at the
// stream's own reads. Stats must agree wherever compared, and the two
// Fold snapshots must be byte-equal at the end.
func TestWindowsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 1000; seed++ {
		for _, checkEvery := range []bool{true, false} {
			got, want, err := runWindowsStream(seed, checkEvery)
			if err != nil {
				t.Fatalf("checkEvery %v: %v", checkEvery, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d checkEvery %v: Fold snapshots differ\ngot  %s\nwant %s", seed, checkEvery, got, want)
			}
		}
	}
}

// TestObserveSteadyStateAllocFree pins the reused window buffer: once a
// series' digest ring is full, filling a new window with no more values
// than the previous one held allocates nothing, closing the previous
// window included.
func TestObserveSteadyStateAllocFree(t *testing.T) {
	for _, keep := range []int{1, 2, DefaultKeep} {
		t.Run(fmt.Sprint("keep ", keep), func(t *testing.T) {
			const perWindow = 64
			w := NewWindows(1, keep)
			tm := 0.0
			fill := func() {
				for i := range perWindow {
					w.Observe("s", tm, float64(i%7))
				}
				tm++
			}
			for range keep + 1 { // prime the buffer and the digest ring
				fill()
			}
			if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
				t.Errorf("a window of %d values allocates %.1f objects, want 0", perWindow, allocs)
			}
			if got := len(w.Stats("s")); got != keep {
				t.Errorf("%d windows kept, want %d", got, keep)
			}
		})
	}
}

// TestAppendWindowMatchesPrintf pins Fold's window-index padding to the
// reference's %04d, past four digits included.
func TestAppendWindowMatchesPrintf(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 123456} {
		if got, want := string(appendWindow([]byte("x"), i)), fmt.Sprintf("x%04d", i); got != want {
			t.Errorf("appendWindow(%d) = %q, want %q", i, got, want)
		}
	}
}
