// Package pool is the deterministic fork-join worker pool behind the
// simulator's parallel hot paths (cluster stepping, the §V-B candidate
// sweep and the Fig. 9/10 per-pair evaluations).
//
// The pool deliberately has no ordering freedom a caller can observe:
// tasks are identified by index, results are written into index-i slots
// by the caller's closure, and every aggregation the callers perform
// happens serially after ForEach returns, in index order. Parallelism
// therefore changes wall-clock time and nothing else — a seeded run
// produces byte-identical output at any worker count, which is what the
// golden fixtures and the parallelism byte-equality tests rely on.
package pool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism knob to an effective worker count:
// p <= 0 means GOMAXPROCS (the pool's "enabled by default" setting), and
// any request is clamped to GOMAXPROCS — the pool exists for the
// simulator's CPU-bound hot paths, where workers beyond the runtime's
// parallel capacity cannot raise throughput but do add scheduling churn
// (and, on a shared host, contend with other processes for the cores).
func Workers(p int) int {
	if maxp := runtime.GOMAXPROCS(0); p <= 0 || p > maxp {
		return maxp
	}
	return p
}

// Panic wraps a panic raised by a pooled task. ForEach attempts every
// task regardless of earlier failures and then re-raises the panic of
// the lowest-index failing task, so the propagated value is a pure
// function of the task set — not of goroutine scheduling.
type Panic struct {
	// Index is the task whose panic is being propagated.
	Index int
	// Value is the original panic value.
	Value any
}

// Error implements error so a recovered pool.Panic prints usefully.
func (p Panic) Error() string {
	return fmt.Sprintf("pool: task %d panicked: %v", p.Index, p.Value)
}

// ForEach invokes fn(i) for every i in [0, n) using at most
// Workers(parallelism) concurrent goroutines. fn must confine its writes
// to per-index state (slot i of a results slice, node i of a fleet);
// shared reductions belong in the caller's serial merge loop.
//
// With one effective worker the loop runs inline on the calling
// goroutine — no goroutines, no channels — so parallelism=1 is the
// plain serial program. In both modes every task is attempted and a
// panicking task does not prevent later tasks from running; after all
// tasks finish, the panic of the lowest-index failing task (if any) is
// re-raised wrapped in Panic. Serial and parallel execution are thus
// observationally equivalent, including under failure.
func ForEach(parallelism, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := min(Workers(parallelism), n)
	var panics []*Panic // allocated on first panic only
	var mu sync.Mutex
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				panics = append(panics, &Panic{Index: i, Value: r})
				mu.Unlock()
			}
		}()
		fn(i)
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	if len(panics) > 0 {
		first := panics[0]
		for _, p := range panics[1:] {
			if p.Index < first.Index {
				first = p
			}
		}
		panic(*first)
	}
}

// Map runs fn over [0, n) with at most Workers(parallelism) workers and
// returns the results in index order.
func Map[T any](parallelism, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(parallelism, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}
