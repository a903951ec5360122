// Package baseline implements the comparison configurations of the
// paper's evaluation:
//
//   - the no-ISP C baseline (hand-written C, host only) every figure
//     normalizes against;
//   - the programmer-directed static ISP configuration: C code with
//     manually chosen offload regions, found — as the paper did — by
//     exhaustively trying all combinations of single-entry-single-exit
//     code regions and keeping the fastest (§V);
//   - the interpreted and Cython no-ISP runs of the runtime-optimization
//     ladder.
//
// Static here means static: once compiled, the partition never changes,
// which is exactly why Figure 2 and Figure 5 show these programs
// collapsing when CSE availability drops.
package baseline

import (
	"fmt"

	"activego/internal/codegen"
	"activego/internal/exec"
	"activego/internal/lang/interp"
	"activego/internal/platform"
)

// maxExhaustiveLines bounds the power-set search; beyond it the search
// falls back to prefix regions (contiguous from the first line), which is
// how hand-optimized ISP code is structured in practice.
const maxExhaustiveLines = 14

// RunHostOnly executes the trace entirely on the host under backend b —
// with codegen.C this is the paper's baseline configuration.
func RunHostOnly(p *platform.Platform, trace *interp.Trace, b codegen.Backend) (*exec.Result, error) {
	return exec.Run(p, trace, exec.Options{Backend: b, Partition: codegen.NewPartition()})
}

// RunStatic executes the trace with a fixed partition under backend b and
// no migration: the conventional compiled ISP program.
func RunStatic(p *platform.Platform, trace *interp.Trace, part codegen.Partition, b codegen.Backend) (*exec.Result, error) {
	return exec.Run(p, trace, exec.Options{Backend: b, Partition: part})
}

// Search is the exhaustive programmer-directed tuning pass: measure every
// combination of offloadable lines on a scratch copy of the platform
// configuration (CSE fully available, as in the paper's §V methodology)
// and return the partition with the shortest end-to-end latency.
func Search(cfg platform.Config, trace *interp.Trace) (codegen.Partition, float64, error) {
	// One scratch platform serves all candidates: runs execute
	// sequentially on it, each measured as its own duration, the way a
	// human would time successive builds on one testbed.
	scratch := platform.New(cfg)
	lines := trace.Lines()
	if len(lines) > maxExhaustiveLines {
		return searchPrefix(scratch, trace, lines)
	}
	best := codegen.NewPartition()
	bestTime, err := measure(scratch, trace, best)
	if err != nil {
		return best, 0, err
	}
	n := len(lines)
	for mask := 1; mask < 1<<n; mask++ {
		part := codegen.NewPartition()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				part.CSDLines[lines[i]] = true
			}
		}
		t, err := measure(scratch, trace, part)
		if err != nil {
			return best, 0, err
		}
		if t < bestTime {
			bestTime = t
			best = part
		}
	}
	return best, bestTime, nil
}

// searchPrefix tries only contiguous prefixes and suffixes of the line
// list — the shapes human-optimized ISP code takes.
func searchPrefix(scratch *platform.Platform, trace *interp.Trace, lines []int) (codegen.Partition, float64, error) {
	best := codegen.NewPartition()
	bestTime, err := measure(scratch, trace, best)
	if err != nil {
		return best, 0, err
	}
	try := func(part codegen.Partition) error {
		t, err := measure(scratch, trace, part)
		if err != nil {
			return err
		}
		if t < bestTime {
			bestTime = t
			best = part
		}
		return nil
	}
	for k := 1; k <= len(lines); k++ {
		pre := codegen.NewPartition(lines[:k]...)
		if err := try(pre); err != nil {
			return best, 0, err
		}
		suf := codegen.NewPartition(lines[len(lines)-k:]...)
		if err := try(suf); err != nil {
			return best, 0, err
		}
	}
	return best, bestTime, nil
}

// measure runs one candidate on the scratch platform and returns its
// duration.
func measure(p *platform.Platform, trace *interp.Trace, part codegen.Partition) (float64, error) {
	res, err := RunStatic(p, trace, part, codegen.C)
	if err != nil {
		return 0, fmt.Errorf("baseline: measuring %v: %w", part, err)
	}
	return res.Duration, nil
}
