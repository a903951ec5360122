package exec

import (
	"activego/internal/lang/interp"
	"activego/internal/nvme"
	"activego/internal/sim"
)

// lineRun is one run of one dynamic line on one unit: the fan-in state
// its phases share, and its phase continuations, bound once when the
// record is first allocated. Runs are pooled on their executor, and a
// finished run returns to the pool before its continuation runs; the
// pool goes with the executor when a Launcher reuses it.
//
// A device run can outlive the attempt that posted it: the host gives up
// at a deadline or a timeout, or the queue pair re-issues the command
// while the first issue still runs. Such a run keeps its own lineRun,
// and its record and attempt are the ones the call carried, never the
// executor's current ones.
type lineRun struct {
	e    *executor
	i    int // the record the run bills: e.trace.Records[i]
	unit Unit
	// device is the csd.Call completion of a CSD run, which always goes
	// through the call queue; nil on the host, where the run's end feeds
	// the executor itself.
	device    func(status uint16, value any)
	remaining int32  // host read stages still running: array read, link stream
	tag       uint32 // the attempt the run issues its traffic for
	readErr   error  // the host array read's error, held for the link stream

	pulled, streamed, shardDone, glueDone, copied func(start, end sim.Time)
	read, hostRead                                func(start, end sim.Time, err error)
}

// runRecord bills record i on the given unit, for the attempt tagged
// tag. The phases run strictly in sequence, the way a single program
// thread experiences them: pull remote operands, read storage, compute,
// then (on the CSD) emit the status update. A CSD run reports to device, the csd.Call
// completion; a host run (device nil) hands the line back to the
// executor, or walks the failure ladder if its data access failed.
func (e *executor) runRecord(i int, tag uint32, unit Unit, device func(uint16, any)) {
	var r *lineRun
	if n := len(e.runs); n > 0 {
		r = e.runs[n-1]
		e.runs[n-1] = nil
		e.runs = e.runs[:n-1]
	} else {
		r = &lineRun{e: e}
		r.pulled = func(_, _ sim.Time) { r.readStorage() }
		r.streamed = func(_, _ sim.Time) { r.stageDone(nil) }
		r.hostRead = func(_, _ sim.Time, err error) { r.stageDone(err) }
		r.read = func(_, _ sim.Time, err error) { r.afterRead(err) }
		r.shardDone = func(_, _ sim.Time) { r.glue() }
		r.glueDone = func(_, _ sim.Time) { r.copy() }
		r.copied = func(_, _ sim.Time) { r.computed() }
	}
	r.i, r.tag, r.unit, r.device = i, tag, unit, device
	r.pullRemoteReads()
}

// rec returns the record the run bills.
func (r *lineRun) rec() *interp.LineRecord { return &r.e.trace.Records[r.i] }

// pullRemoteReads moves any consumed variables that live on the other
// side of the link. In the shared address space this is a remote access;
// the executor models it with move semantics so repeated consumers pay
// once.
func (r *lineRun) pullRemoteReads() {
	e := r.e
	var bytes int64
	for _, s := range e.slots.Reads(r.i) {
		if st := &e.varHome[s]; st.unit != r.unit {
			bytes += st.bytes
			st.unit = r.unit
		}
	}
	if bytes == 0 {
		r.readStorage()
		return
	}
	r.bill(bytes, 0)
	e.p.Topo.D2H.Transfer(float64(bytes), r.pulled)
}

// readStorage bills the line's data-access volume: the flash array always
// pays; a host consumer additionally streams the data across the external
// link — the DS_raw / BW_D2H term of Equation 1. The array read and the
// link stream proceed in a pipeline (NVMe reads stream pages as they are
// sensed), so the host path costs the *slower* of the two stages, not
// their sum; both queues are still occupied for contention purposes.
func (r *lineRun) readStorage() {
	e := r.e
	bytes := r.rec().Cost.StorageBytes
	if bytes == 0 {
		r.compute()
		return
	}
	if r.unit == UnitHost {
		r.remaining, r.readErr = 2, nil
		e.p.Dev.Array.ReadChecked(bytes, r.hostRead)
		r.bill(bytes, 0)
		e.p.Topo.D2H.Transfer(float64(bytes), r.streamed)
		return
	}
	e.p.Dev.Array.ReadChecked(bytes, r.read)
}

// stageDone counts down the host path's array read and link stream.
func (r *lineRun) stageDone(err error) {
	if err != nil {
		r.readErr = err
	}
	r.remaining--
	if r.remaining == 0 {
		r.afterRead(r.readErr)
	}
}

func (r *lineRun) afterRead(err error) {
	if err != nil {
		// The line's data never materialized; computing on it would be
		// garbage-in. Fail the line at this phase.
		r.end(err)
		return
	}
	r.compute()
}

// units returns the compute resource and memory bus of the run's unit.
func (r *lineRun) units() (*sim.Resource, *sim.Link) {
	if r.unit == UnitCSD {
		return r.e.p.Dev.CSE, r.e.p.Topo.DevMem
	}
	return r.e.p.Host.CPU, r.e.p.Topo.HostMem
}

// compute bills kernel work (data-parallel across the unit's cores),
// surviving glue (serial), and wrapper copies (memory bus), in sequence.
func (r *lineRun) compute() {
	work := r.rec().Cost.KernelWork
	if work <= 0 {
		r.glue()
		return
	}
	// Data-parallel: split across the unit's cores, complete when the
	// slowest shard finishes.
	res, _ := r.units()
	cores := res.Cores()
	res.SubmitN(cores, work/float64(cores), r.shardDone)
}

func (r *lineRun) glue() {
	glue := r.e.opts.Backend.GlueFactor * r.rec().Cost.GlueWork
	if glue <= 0 {
		r.copy()
		return
	}
	res, _ := r.units()
	res.Submit(glue, r.glueDone)
}

func (r *lineRun) copy() {
	if b := r.e.opts.Backend; !b.CopyElim && r.rec().Cost.CopyBytes > 0 {
		_, mem := r.units()
		mem.Transfer(float64(r.rec().Cost.CopyBytes), r.copied)
		return
	}
	r.computed()
}

func (r *lineRun) computed() {
	if r.unit == UnitCSD {
		// Status updates are fire-and-forget (§III-C-b): the line does
		// not stall on the report landing.
		r.e.p.Dev.SendStatus(nil)
		r.bill(r.e.p.Dev.Cfg.StatusBytes, 1)
	}
	r.end(nil)
}

// end returns the run to the pool and reports its outcome. A device run
// that ends after its executor's run reported may be the last thing the
// executor waits on, so it tries to release the executor.
func (r *lineRun) end(err error) {
	e, rec, unit, device := r.e, r.rec(), r.unit, r.device
	r.device, r.readErr = nil, nil
	e.runs = append(e.runs, r)
	switch {
	case device != nil:
		e.devRuns--
		if err != nil {
			device(nvme.StatusMediaError, err)
		} else {
			device(0, nil)
		}
		if e.done || e.err != nil {
			e.release()
		}
	case err != nil:
		e.failLine(lineFailure{record: e.idx, line: rec.Line, unit: unit, read: err})
	default:
		e.afterRecord(rec, unit)
	}
}
