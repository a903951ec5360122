// Package codegen models ActivePy's code-generation stage (§III-C).
//
// On the real system ActivePy feeds the partitioned program through
// Cython to emit host and CSD machine binaries, patches in status-update
// code at line boundaries, and rewrites wrapper calls to produce results
// directly into mutable shared-memory objects (eliminating redundant
// copies). In the simulation, "generated code" is a Backend descriptor:
// it fixes how much interpreter glue survives compilation, whether
// wrapper copies are eliminated, and what the one-time compilation costs.
// The execution layer prices a line's value.Cost under the active backend.
//
// The three backends form the paper's §V runtime-optimization ladder:
// Interpreted (CPython analogue, 41% over C), Cython (20% over C), and
// Native (ActivePy's generated code, ≈C plus ~1% compile overhead).
package codegen

import "fmt"

// Backend describes one code-generation strategy.
type Backend struct {
	Name string
	// GlueFactor scales the interpreter GlueWork that survives in
	// generated code (1 = full interpreter, 0 = pure C).
	GlueFactor float64
	// CopyElim reports whether redundant wrapper copies are eliminated
	// (§III-C-c mutable memory objects).
	CopyElim bool
	// CompileOverhead is the one-time code-generation latency in seconds,
	// charged when the program starts.
	CompileOverhead float64
}

func (b Backend) String() string { return fmt.Sprintf("backend(%s)", b.Name) }

// The backend ladder.
var (
	// Interpreted is the plain interpreter: full glue, full copies — the
	// paper's unmodified-Python data point.
	Interpreted = Backend{Name: "interpreted", GlueFactor: 1.0}
	// Cython compiles to native code but keeps wrapper-boundary copies
	// and a fraction of dynamic-dispatch glue.
	Cython = Backend{Name: "cython", GlueFactor: 0.28, CompileOverhead: 0.05}
	// Native is ActivePy's generated code: nearly all glue gone, copies
	// eliminated by producing results into mutable shared memory.
	Native = Backend{Name: "native", GlueFactor: 0.02, CopyElim: true, CompileOverhead: 0.06}
	// C is the hand-written C baseline: no glue, no copies, no runtime
	// compilation.
	C = Backend{Name: "c", GlueFactor: 0, CopyElim: true}
)

// Partition is the outcome of program slicing: the set of source lines
// assigned to the CSD. Lines absent from the set run on the host.
type Partition struct {
	CSDLines map[int]bool
}

// NewPartition builds a partition from a line list.
func NewPartition(lines ...int) Partition {
	p := Partition{CSDLines: map[int]bool{}}
	for _, ln := range lines {
		p.CSDLines[ln] = true
	}
	return p
}

// OnCSD reports whether line ln is assigned to the CSD.
func (p Partition) OnCSD(ln int) bool { return p.CSDLines[ln] }

// Lines returns the CSD-assigned lines, ascending.
func (p Partition) Lines() []int {
	out := make([]int, 0, len(p.CSDLines))
	for ln := range p.CSDLines {
		out = append(out, ln)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// Empty reports whether nothing is offloaded.
func (p Partition) Empty() bool { return len(p.CSDLines) == 0 }

func (p Partition) String() string {
	return fmt.Sprintf("partition(csd=%v)", p.Lines())
}

// Equal reports whether two partitions offload the same lines.
func (p Partition) Equal(q Partition) bool {
	if len(p.CSDLines) != len(q.CSDLines) {
		return false
	}
	for ln := range p.CSDLines {
		if !q.CSDLines[ln] {
			return false
		}
	}
	return true
}

// RegenOverhead is the latency of regenerating host machine code for a
// migrated task (§III-D): Cython-style compilation of the remaining
// lines. It is the main component of the ~8% average migration cost the
// paper reports in Figure 5.
const RegenOverhead = 0.05
