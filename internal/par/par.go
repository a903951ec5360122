// Package par is the deterministic parallel-execution layer: a bounded
// worker pool plus fan-out helpers whose output is byte-identical to the
// serial path regardless of goroutine scheduling.
//
// Determinism is the contract, parallelism is the optimization. Map
// collects results indexed by input position and reports the
// lowest-indexed error — so a caller can swap a serial loop for par.Map
// without its output, its error, or anything downstream of either
// changing by a single byte. The simulation kernel itself stays
// single-goroutine per run (that is what makes runs reproducible); par
// only fans out *independent* runs: sampling scales and experiment specs.
//
// A nil *Pool is valid and means "inline, zero goroutines" — the same
// nil-is-inert convention as trace.Recorder and metrics.Registry. The -j
// flag in internal/cliutil constructs pools for the commands.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded degree of parallelism. It holds no goroutines of its
// own; each Map call spawns at most Workers() goroutines for its
// duration and joins them before returning, so a Pool can be shared, and
// nested fan-outs (experiments over workloads, each sampling over scales)
// cannot deadlock — they merely oversubscribe the scheduler a little.
type Pool struct {
	workers int
}

// New returns a pool of n workers; n <= 0 means GOMAXPROCS.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers reports the pool's parallelism; a nil pool is serial (1).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Map evaluates fn(0..n-1) and returns the results indexed by input
// position. With an effective parallelism of 1 it runs inline on the
// calling goroutine — no goroutines, no channels, byte-identical to the
// loop it replaces.
//
// On failure Map returns the error of the lowest failing index — the same
// error a serial loop would stop at — never the error that merely
// finished first. Workers claim indices in ascending order and a claimed
// index always runs to completion, so the lowest failing index is always
// evaluated before the fan-out stops; cancellation only prevents *later*
// indices from starting. All workers are joined before Map returns, so
// no goroutines outlive the call.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next     atomic.Int64
		errs     = make([]error, n)
		failed   atomic.Bool
		stop     = make(chan struct{})
		stopOnce sync.Once
		wg       sync.WaitGroup
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// The stop check guards the *claim*, not the run: once an
				// index is claimed it executes unconditionally. That is
				// what pins the error identity — see the doc comment.
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					stopOnce.Do(func() { close(stop) })
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
	}
	return out, nil
}
