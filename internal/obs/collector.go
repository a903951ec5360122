package obs

import "fmt"

// Collector attributes observed per-line executor costs to windowed
// series: actual compute seconds per unit, D2H bytes, admission-queue
// wait, and retries, each under a line<N>.* series name. The executor
// calls these hooks from inside its existing completion callbacks
// (internal/exec, Options.Obs); a nil *Collector makes every hook a
// no-op, so the unobserved run is bit-identical.
type Collector struct {
	win *Windows
	// lines holds, by source line, each kind's series handle, resolved
	// by name on the first observation of that (line, kind) pair.
	lines [][numKinds]*series
}

// The series kinds the executor reports for every line.
const (
	kindCSDSeconds = iota
	kindHostSeconds
	kindD2HBytes
	kindQueueSeconds
	kindRetries
	numKinds
)

// kindNames are the series name suffixes of the kinds, by kind.
var kindNames = [numKinds]string{"csd.seconds", "host.seconds", "d2h.bytes", "queue.seconds", "retries"}

// NewCollector creates a collector over a fresh window set; like
// NewWindows, a non-positive interval returns nil (inert).
func NewCollector(interval float64, keep int) *Collector {
	w := NewWindows(interval, keep)
	if w == nil {
		return nil
	}
	return &Collector{win: w}
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

// handle returns line's series of the given kind, resolving its name
// once: the hooks run on every observed line.
func (c *Collector) handle(line, kind int) *series {
	if line >= len(c.lines) {
		c.lines = append(c.lines, make([][numKinds]*series, line+1-len(c.lines))...)
	}
	s := c.lines[line][kind]
	if s == nil {
		s = c.win.lookup(LineSeries(line, kindNames[kind]))
		c.lines[line][kind] = s
	}
	return s
}

// Line records one completed dynamic line execution: seconds of
// simulated latency on the named unit ("csd" or "host") and the D2H
// bytes the attempt moved (skipped when zero — most host lines move
// nothing).
func (c *Collector) Line(line int, unit string, t, seconds, d2hBytes float64) {
	if c == nil {
		return
	}
	switch unit {
	case "csd":
		c.win.observe(c.handle(line, kindCSDSeconds), t, seconds)
	case "host":
		c.win.observe(c.handle(line, kindHostSeconds), t, seconds)
	default:
		c.win.Observe(LineSeries(line, unit+".seconds"), t, seconds)
	}
	if d2hBytes > 0 {
		c.win.observe(c.handle(line, kindD2HBytes), t, d2hBytes)
	}
}

// Queue records the call-queue wait an offloaded invocation saw between
// dispatch and its device-side start.
func (c *Collector) Queue(line int, t, wait float64) {
	if c == nil {
		return
	}
	c.win.observe(c.handle(line, kindQueueSeconds), t, wait)
}

// Retry records one line re-post (fault recovery or resilience ladder).
func (c *Collector) Retry(line int, t float64) {
	if c == nil {
		return
	}
	c.win.observe(c.handle(line, kindRetries), t, 1)
}
