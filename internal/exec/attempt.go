package exec

import (
	"fmt"

	"activego/internal/metrics"
	"activego/internal/obs"
	"activego/internal/sim"
)

// attempt is the record of one line attempt: one dispatch of the current
// record, open until the host settles it, in afterRecord when the line
// completed or in failLine when it failed. Every link byte and status
// message the attempt causes is added where it is issued: a remote
// operand pull, a host-path storage stream, a status update, and the
// call's own queue entries, which its completion reports. close reads
// the record into every sink.
type attempt struct {
	tag    uint32 // the attempt's number in the run; its call's Arg carries it
	open   bool
	picked bool // the device picked the attempt's call up, at pickup
	unit   Unit

	dispatch, pickup sim.Time
	d2hBytes         int64  // link bytes the attempt issued
	statusMsgs       uint64 // status updates its device runs sent
}

// owns reports whether the host still waits on the attempt tagged tag.
func (a *attempt) owns(tag uint32) bool { return a.open && a.tag == tag }

// callArg packs a CSD call's argument: the record index in the low 32
// bits and the attempt's tag in the high 32. A device run receives it by
// value, so it knows its record, and whether the host still waits on its
// attempt, however long it outlives that attempt.
func callArg(record int, tag uint32) int64 { return int64(tag)<<32 | int64(uint32(record)) }

// splitCallArg unpacks callArg.
func splitCallArg(arg int64) (record int, tag uint32) {
	return int(uint32(arg)), uint32(uint64(arg) >> 32)
}

// close settles the open attempt at the current instant, the one place
// its record reaches the sinks: on success, the trace span and the
// unit's line histogram over [dispatch, now]; the obs collector's
// attempt hook; and the Result, whose byte and status totals are sums
// over closed attempts. repost marks a failed attempt the ladder
// re-posts, which counts one retry.
func (e *executor) close(ok, repost bool) {
	a := &e.att
	a.open = false
	now := e.p.Sim.Now()
	line := e.trace.Records[e.idx].Line
	e.res.D2HBytes += float64(a.d2hBytes)
	e.res.StatusMsgs += a.statusMsgs
	if ok {
		if r := e.p.Sim.Recorder(); r != nil {
			r.Span("exec", "exec", fmt.Sprintf("L%d@%s", line, a.unit), a.dispatch, now)
		}
		if m := e.opts.Metrics; m != nil {
			h := e.lineHist[a.unit]
			if h == nil {
				name := metrics.MetricExecLineHost
				if a.unit == UnitCSD {
					name = metrics.MetricExecLineCSD
				}
				h = m.Histogram(name)
				e.lineHist[a.unit] = h
			}
			h.Observe(now - a.dispatch)
		}
	}
	if repost {
		e.res.Retries++
		e.instant("line-retry", line)
	}
	e.opts.Obs.Attempt(now, obs.Attempt{
		Line: line, OnCSD: a.unit == UnitCSD,
		Done: ok, Seconds: now - a.dispatch,
		Picked: a.picked, Queue: a.pickup - a.dispatch,
		D2HBytes: float64(a.d2hBytes), Retried: repost,
	})
}

// bill adds link bytes and status messages the run issued to its
// attempt. A device run whose attempt the host has already settled (a
// deadline miss, a timeout re-issue, a breaker open) bills the abandoned
// counters instead, never an attempt or a Result.
func (r *lineRun) bill(bytes int64, msgs uint64) {
	e := r.e
	if a := &e.att; a.owns(r.tag) {
		a.d2hBytes += bytes
		a.statusMsgs += msgs
		return
	}
	if m := e.opts.Metrics; m != nil {
		m.Counter(metrics.MetricExecAbandonedD2HBytes).Add(float64(bytes))
		m.Counter(metrics.MetricExecAbandonedStatusMsgs).Add(float64(msgs))
	}
}
