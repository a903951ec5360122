// Package sim is a detlint fixture: its final segment matches the
// simulation kernel's, so the keep-list entry "sim.Resource.QueueLen"
// applies here. DL007 must fire on Unused, which nothing references,
// and on TestOnly, which only sim_test.go references, and stay silent
// on the used NewResource, on String and Size, which satisfy interfaces
// the program uses, and on the kept QueueLen.
package sim

// Resource mimics the kernel's shared resource.
type Resource struct{ queued int }

// NewResource is referenced from run.
func NewResource() *Resource { return &Resource{} }

// QueueLen is on the keep list: a test observer of the queue.
func (r *Resource) QueueLen() int { return r.queued }

// String satisfies fmt.Stringer, which fmt consults at run time.
func (r *Resource) String() string { return "resource" }

// Size satisfies sizer, which total uses.
func (r *Resource) Size() int { return r.queued }

// Unused has no reference at all.
func Unused() {}

// TestOnly is referenced only from a test file.
const TestOnly = 3

type sizer interface{ Size() int }

func total(s sizer) int { return s.Size() }

func run() int { return total(NewResource()) }
