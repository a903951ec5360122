package obs

import "fmt"

// Collector attributes observed per-line executor costs to windowed
// series: actual compute seconds per unit, D2H bytes, admission-queue
// wait, and retries, each under a line<N>.* series name. The executor
// calls these hooks from inside its existing completion callbacks
// (internal/exec, Options.Obs); a nil *Collector makes every hook a
// no-op, so the unobserved run is bit-identical.
type Collector struct {
	win   *Windows
	names map[seriesKey]string // interned LineSeries names
}

type seriesKey struct {
	line int
	kind string
}

// NewCollector creates a collector over a fresh window set; like
// NewWindows, a non-positive interval returns nil (inert).
func NewCollector(interval float64, keep int) *Collector {
	w := NewWindows(interval, keep)
	if w == nil {
		return nil
	}
	return &Collector{win: w, names: map[seriesKey]string{}}
}

// Windows exposes the underlying window set (nil on a nil collector).
func (c *Collector) Windows() *Windows {
	if c == nil {
		return nil
	}
	return c.win
}

// LineSeries names one line's observed series of the given kind —
// "csd.seconds", "host.seconds", "d2h.bytes", "queue.seconds",
// "retries".
func LineSeries(line int, kind string) string {
	return fmt.Sprintf("line%d.%s", line, kind)
}

// series returns LineSeries(line, kind), building each name once: the
// hooks run on every observed line.
func (c *Collector) series(line int, kind string) string {
	k := seriesKey{line, kind}
	name, ok := c.names[k]
	if !ok {
		name = LineSeries(line, kind)
		c.names[k] = name
	}
	return name
}

// Line records one completed dynamic line execution: seconds of
// simulated latency on the named unit ("csd" or "host") and the D2H
// bytes the attempt moved (skipped when zero — most host lines move
// nothing).
func (c *Collector) Line(line int, unit string, t, seconds, d2hBytes float64) {
	if c == nil {
		return
	}
	c.win.Observe(c.series(line, secondsKind(unit)), t, seconds)
	if d2hBytes > 0 {
		c.win.Observe(c.series(line, "d2h.bytes"), t, d2hBytes)
	}
}

// secondsKind is the series kind of a unit's compute seconds, without a
// concatenation for the two units the executor reports.
func secondsKind(unit string) string {
	switch unit {
	case "csd":
		return "csd.seconds"
	case "host":
		return "host.seconds"
	}
	return unit + ".seconds"
}

// Queue records the call-queue wait an offloaded invocation saw between
// dispatch and its device-side start.
func (c *Collector) Queue(line int, t, wait float64) {
	if c == nil {
		return
	}
	c.win.Observe(c.series(line, "queue.seconds"), t, wait)
}

// Retry records one line re-post (fault recovery or resilience ladder).
func (c *Collector) Retry(line int, t float64) {
	if c == nil {
		return
	}
	c.win.Observe(c.series(line, "retries"), t, 1)
}
