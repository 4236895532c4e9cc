// Package conc provides the bounded worker-pool primitives the offline
// phase parallelises on. Every helper dispatches a dense index space to at
// most `workers` goroutines and requires the callback to write only into
// its own slot (results[i]), so the output is deterministic — identical for
// any worker count, independent of goroutine scheduling.
package conc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n when positive, otherwise
// GOMAXPROCS (the "use every core" default).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelFor runs fn(i) for every i in [0, n) on up to `workers`
// goroutines (clamped to n; workers <= 1 runs inline). fn must be safe to
// call concurrently for distinct i and must not depend on call order.
func ParallelFor(workers, n int, fn func(i int)) {
	ParallelWork(workers, n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) { fn(i) })
}

// ParallelWork is ParallelFor with per-worker state: each worker goroutine
// calls newState once and passes the value to every fn it runs. Use it to
// thread scratch buffers (e.g. core.MatchScratch) through a fan-out without
// per-item allocation.
func ParallelWork[S any](workers, n int, newState func() S, fn func(s S, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := newState()
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			s := newState()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(s, i)
			}
		}()
	}
	wg.Wait()
}

// FirstError returns the first non-nil error in index order (the
// deterministic aggregate for a fanned-out loop that can fail).
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
