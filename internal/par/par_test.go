package par

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", got)
	}
	if got := New(4).Workers(); got != 4 {
		t.Errorf("New(4).Workers() = %d, want 4", got)
	}
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// TestMapOrdered pins the core contract: results land at their input
// index no matter how the scheduler interleaves the workers.
func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		out, err := Map(New(workers), 100, func(i int) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Duration(i%3) * time.Millisecond) // jitter
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndNilPool(t *testing.T) {
	out, err := Map[int](nil, 0, func(int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty Map: %v, %v", out, err)
	}
	out, err = Map[int](nil, 3, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 3 || out[2] != 2 {
		t.Fatalf("nil-pool Map: %v, %v", out, err)
	}
}

// TestMapFirstErrorByInputOrder is the error-identity contract: whatever
// the scheduling, the error returned is the one the serial loop would
// have stopped at — the lowest failing index — because workers claim
// indices in ascending order and claimed indices always run.
func TestMapFirstErrorByInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		n := 20 + rng.Intn(60)
		first := rng.Intn(n)
		errAt := func(i int) error { return fmt.Errorf("task %d failed", i) }
		want := errAt(first).Error()
		jitter := make([]time.Duration, n) // precomputed: rng is not goroutine-safe
		for i := range jitter {
			jitter[i] = time.Duration(rng.Intn(50)) * time.Microsecond
		}
		out, err := Map(New(8), n, func(i int) (int, error) {
			if i%5 == 0 {
				time.Sleep(jitter[i])
			}
			if i >= first {
				return 0, errAt(i)
			}
			return i, nil
		})
		if out != nil {
			t.Fatalf("round %d: non-nil result slice alongside error", round)
		}
		if err == nil || err.Error() != want {
			t.Fatalf("round %d: err = %v, want %q", round, err, want)
		}
	}
}

// TestMapCancelsPromptly checks that an error stops the fan-out from
// claiming new work: with 4 workers and a failure at index 0, far fewer
// than n tasks may start (the failing one plus at most one in-flight
// claim per worker).
func TestMapCancelsPromptly(t *testing.T) {
	const n, workers = 10000, 4
	var started atomic.Int64
	sentinel := errors.New("boom")
	_, err := Map(New(workers), n, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, sentinel
		}
		time.Sleep(50 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	// Generous bound: each worker can claim a handful of tasks before the
	// stop channel closes, but nothing like the full index space.
	if s := started.Load(); s > n/10 {
		t.Errorf("%d of %d tasks started after an immediate failure; cancellation is not prompt", s, n)
	}
}

// TestMapNoGoroutineLeaks runs success and failure fan-outs and requires
// the goroutine count to return to its baseline — Map must join all its
// workers on every path.
func TestMapNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		_, _ = Map(New(8), 64, func(i int) (int, error) {
			if round%2 == 1 && i == 13 {
				return 0, errors.New("fail")
			}
			return i, nil
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
