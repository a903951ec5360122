package value

// Cost is what one kernel invocation (or one evaluated line) reports to
// the execution layer. The simulator turns these into time; the sampling
// phase (§III-A of the paper) turns the recorded costs of scaled-down
// runs into per-line predictions.
//
// The split matters:
//
//   - KernelWork is the algorithmic work a C implementation would do; it
//     runs data-parallel across the executing unit's cores.
//   - GlueWork is interpreter-level overhead — boxing, dynamic dispatch,
//     per-row Python bytecode — and is serial (the interpreter lock).
//     Compiled backends shrink it; that shrinkage is the paper's
//     41% → 20% ladder (§V, "optimizations in its language runtime").
//   - CopyBytes are redundant buffer copies at wrapper-call boundaries;
//     ActivePy's mutable-memory-object optimization (§III-C-c) eliminates
//     them, closing the remaining 20% → ≈0%.
//   - StorageBytes is the data-access volume, which the sampling phase
//     accounts separately from compute because it scales linearly with
//     input size when compute may not (§III-A).
type Cost struct {
	KernelWork   float64
	GlueWork     float64
	CopyBytes    int64
	StorageBytes int64
	Elements     int64 // items processed; diagnostic and calibration aid
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.KernelWork += o.KernelWork
	c.GlueWork += o.GlueWork
	c.CopyBytes += o.CopyBytes
	c.StorageBytes += o.StorageBytes
	c.Elements += o.Elements
}
