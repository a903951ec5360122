package obs

import "fmt"

// Collector attributes observed per-line executor costs to windowed
// series: actual compute seconds per unit, D2H bytes, call-queue wait,
// and retries, each under a line<N>.* series name. The executor reports
// each line attempt once, when the host settles it (internal/exec,
// Options.Obs); a nil *Collector makes the hook a no-op, so the
// unobserved run is bit-identical.
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

// Attempt is one line attempt as the executor closes it: everything the
// line's series read, observed at the instant the host settled it.
type Attempt struct {
	Line  int
	OnCSD bool // the attempt ran on the CSD, otherwise on the host
	// Done reports that the line completed; Seconds, dispatch to close,
	// is observed only then.
	Done    bool
	Seconds float64
	// Picked reports that the device picked the attempt's call up; Queue,
	// pickup minus dispatch, is observed only then.
	Picked bool
	Queue  float64
	// D2HBytes is the link traffic the attempt issued, observed when
	// positive (most host lines move nothing).
	D2HBytes float64
	Retried  bool // the line is re-posted: one retry
}

// Attempt records one closed line attempt at t, the instant the host
// settled it. Every series of the attempt is observed at t, so each
// series sees the nondecreasing times Windows requires however many
// runs share the collector.
func (c *Collector) Attempt(t float64, a Attempt) {
	if c == nil {
		return
	}
	if a.Done {
		kind := kindHostSeconds
		if a.OnCSD {
			kind = kindCSDSeconds
		}
		c.win.observe(c.handle(a.Line, kind), t, a.Seconds)
	}
	if a.D2HBytes > 0 {
		c.win.observe(c.handle(a.Line, kindD2HBytes), t, a.D2HBytes)
	}
	if a.Picked {
		c.win.observe(c.handle(a.Line, kindQueueSeconds), t, a.Queue)
	}
	if a.Retried {
		c.win.observe(c.handle(a.Line, kindRetries), t, 1)
	}
}
