package exec

// monitor implements §III-D: after each offloaded line, compare the
// device's measured execution rate with the estimate; when it sags, use
// the measured rate to re-estimate the remaining offloaded work, weigh it
// against the full cost of migrating to the host (code regeneration, the
// locals snapshot, and the remaining lines at host prices), and migrate
// when staying is projected to be slower. Returns true when it migrated
// and took over continuation of the run.
func (e *executor) monitor() bool {
	if !e.opts.Migration.Enabled || e.migrated {
		return false
	}
	// §III-D case 1: a high-priority tenant demanded the device through
	// the command pages. ActivePy vacates immediately at this line
	// boundary — no cost/benefit analysis, the device is needed.
	if e.p.Dev.PreemptRequested() {
		e.p.Dev.ClearPreempt()
		e.migrate()
		return true
	}
	observed := effectiveRate(e.p)
	nominal := e.p.Dev.CSE.Rate()
	prev := e.lastObserved
	e.lastObserved = observed
	dropping := observed < decreaseFactor*prev
	belowEstimate := observed < ipcFraction*nominal
	if !dropping && !belowEstimate {
		return false
	}

	// Re-estimate the remaining offloaded records at the measured rate.
	slowdown := nominal / observed
	var remDev, remHost float64
	for j := e.idx + 1; j < len(e.trace.Records); j++ {
		rec := &e.trace.Records[j]
		if !e.opts.Partition.OnCSD(rec.Line) {
			continue
		}
		est := e.opts.Estimates[rec.Line]
		if est == nil || est.Execs <= 0 {
			continue
		}
		perExec := 1 / est.Execs
		remDev += (est.CTDev*slowdown + est.SDev) * perExec
		remHost += (est.CTHost + est.SHost) * perExec
	}
	if remDev == 0 {
		return false
	}

	// Data moves lazily after migration, so the data-movement term is the
	// device-resident volume the remaining lines will actually consume.
	moved := make([]bool, len(e.varHome))
	var lazyBytes float64
	for j := e.idx + 1; j < len(e.trace.Records); j++ {
		for _, s := range e.slots.Reads(j) {
			if st := e.varHome[s]; st.unit == UnitCSD && !moved[s] {
				moved[s] = true
				lazyBytes += float64(st.bytes)
			}
		}
	}
	migrateCost := e.opts.regenOverhead() + lazyBytes/e.p.Cfg.Inter.D2HBandwidth + remHost
	if remDev <= migrateCost {
		return false
	}
	e.migrate()
	return true
}

// migrate hands the rest of the run to the host at the boundary after
// the line that just completed on the CSD.
func (e *executor) migrate() {
	e.relocate(moveMigrate, e.trace.Records[e.idx].Line, e.advance)
}

// A move is one host<->device transition of the offload path.
type move int

const (
	moveMigrate      move = iota // §III-D monitor: the rest of the run leaves the device
	moveBreakerOpen              // breaker opened: partition lines run on the host until a probe
	moveBreakerProbe             // half-open breaker: offload re-admitted for one probe line
)

// relocate is the executor's single actuator for a host<->device move:
// the only code that records one and the only code that bills code
// regeneration. Every move pays the §III-D bill: machine code is
// regenerated for the unit the run moves to, and then resumes the run
// there once that is done. Data stays where it is in the shared address space — the paper's
// migrated task pays for "accessing live data in CSD from the host",
// which here happens lazily: each later line that consumes a variable
// resident on the other side pulls it over the link when it first
// touches it (pullRemoteReads), so only data actually needed moves.
func (e *executor) relocate(m move, line int, then func()) {
	now := e.p.Sim.Now()
	switch m {
	case moveMigrate:
		e.migrated = true
		e.res.Migrated = true
		e.res.MigratedAt = now
		e.p.Sim.Recorder().Instant("exec", "exec", "migrate", now)
	case moveBreakerOpen:
		e.res.BreakerOpens++
		e.instant("breaker-open", line)
		e.sampleBreakerState()
	case moveBreakerProbe:
		e.res.BreakerProbes++
		e.instant("breaker-probe", line)
		e.sampleBreakerState()
	}
	e.p.Sim.After(e.opts.regenOverhead(), then)
}
