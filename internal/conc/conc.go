// Package conc provides the bounded worker-pool primitives the offline
// phase parallelises on. ParallelFor dispatches a dense index space to at
// most `workers` goroutines; Pool runs a session's ordered per-thread work
// and the independent tasks it spawns on one fixed set of workers. Every
// task must write only into its own slot (results[i]), so the output is
// deterministic — identical for any worker count, independent of goroutine
// scheduling.
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
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
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

// Pool is a fixed set of worker goroutines, each owning a state S (a
// scratch buffer, say) that it passes to every task it runs. It runs two
// kinds of task:
//
//   - strand tasks: a Strand's tasks run in post order, never two at once,
//     on whichever worker is free. Workers take strand tasks ahead of
//     plain ones.
//   - plain tasks, each in a Group: independent, in any order, at once.
//     A task that waits for a Group runs queued plain tasks on its own
//     worker's state in the meantime, so waiting never idles a worker and
//     a one-worker pool cannot deadlock on it.
//
// Only the workers compute: tasks never run on a posting or quiescing
// goroutine, so at most `workers` tasks run at once however they nest.
// Post, Quiesce and Close must not be called from a task.
type Pool[S any] struct {
	mu sync.Mutex
	// work wakes workers and group waiters: a task was queued, a group
	// finished, or the pool closed. space wakes a Post blocked on the
	// queue bound; idle wakes Quiesce.
	work, space, idle sync.Cond

	ready  []*Strand[S] // strands with a queued task and none running
	plain  []plainTask[S]
	queued int // strand tasks posted and not yet started
	limit  int // Post blocks while queued == limit
	active int // strands running a task or with one queued
	closed bool
	wg     sync.WaitGroup
}

type plainTask[S any] struct {
	g  *Group[S]
	fn func(S)
}

// NewPool starts workers goroutines, each with the state newState returns
// on that goroutine. At most limit strand tasks wait at once: Post blocks
// until a worker takes one.
func NewPool[S any](workers, limit int, newState func() S) *Pool[S] {
	p := &Pool[S]{limit: limit}
	p.work.L, p.space.L, p.idle.L = &p.mu, &p.mu, &p.mu
	p.wg.Add(workers)
	for range workers {
		go p.run(newState)
	}
	return p
}

// run is one worker: strand tasks first, then plain ones, until the pool
// is closed and nothing is queued.
func (p *Pool[S]) run(newState func() S) {
	defer p.wg.Done()
	s := newState()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if len(p.ready) > 0 {
			st := pop(&p.ready)
			fn := pop(&st.tasks)
			st.running = true
			p.queued--
			p.space.Signal()
			p.mu.Unlock()
			fn(s)
			p.mu.Lock()
			st.running = false
			if len(st.tasks) > 0 {
				p.ready = append(p.ready, st)
			} else if p.active--; p.active == 0 {
				p.idle.Broadcast()
			}
			continue
		}
		if p.runPlain(s) {
			continue
		}
		if p.closed {
			return
		}
		p.work.Wait()
	}
}

// runPlain runs the oldest queued plain task on s, if any, and reports
// whether it ran one. Called, and returns, with p.mu held.
func (p *Pool[S]) runPlain(s S) bool {
	if len(p.plain) == 0 {
		return false
	}
	t := pop(&p.plain)
	p.mu.Unlock()
	t.fn(s)
	p.mu.Lock()
	if t.g.pending--; t.g.pending == 0 {
		p.work.Broadcast()
	}
	return true
}

// Quiesce blocks until every strand is empty and idle. Plain tasks may
// still be running. Returning, it orders every strand task run so far
// before the caller's next step.
func (p *Pool[S]) Quiesce() {
	p.mu.Lock()
	for p.active > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// Close waits for every strand to go idle, then stops and joins the
// workers once no plain task is queued. Nothing may be posted after it.
func (p *Pool[S]) Close() {
	p.Quiesce()
	p.mu.Lock()
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Strand is an ordered queue of tasks on a Pool.
type Strand[S any] struct {
	p       *Pool[S]
	tasks   []func(S) // guarded by p.mu
	running bool
}

// NewStrand returns an empty strand on p.
func (p *Pool[S]) NewStrand() *Strand[S] { return &Strand[S]{p: p} }

// Post queues fn behind the strand's earlier tasks, blocking while the
// pool's bound of waiting strand tasks is reached.
func (st *Strand[S]) Post(fn func(S)) {
	p := st.p
	p.mu.Lock()
	for p.queued >= p.limit {
		p.space.Wait()
	}
	p.queued++
	st.tasks = append(st.tasks, fn)
	if !st.running && len(st.tasks) == 1 {
		p.ready = append(p.ready, st)
		p.active++
	}
	p.work.Broadcast()
	p.mu.Unlock()
}

// Group is a set of plain tasks that can be waited for. A Group with no
// pool runs its tasks inline, in order, when it is waited for.
type Group[S any] struct {
	p       *Pool[S]
	pending int       // tasks not yet finished, guarded by p.mu
	inline  []func(S) // a poolless group's tasks
}

// NewGroup returns an empty group whose tasks run on p (nil: inline).
func NewGroup[S any](p *Pool[S]) *Group[S] { return &Group[S]{p: p} }

// Go queues fn as a plain task of g.
func (g *Group[S]) Go(fn func(S)) {
	p := g.p
	if p == nil {
		g.inline = append(g.inline, fn)
		return
	}
	p.mu.Lock()
	g.pending++
	p.plain = append(p.plain, plainTask[S]{g, fn})
	p.work.Broadcast()
	p.mu.Unlock()
}

// Wait returns once every task queued on g has finished, running queued
// plain tasks — g's or any other group's — on s meanwhile. s must be the
// state of the worker whose task calls Wait, or one the caller owns.
func (g *Group[S]) Wait(s S) {
	p := g.p
	if p == nil {
		for i := 0; i < len(g.inline); i++ {
			g.inline[i](s)
		}
		g.inline = nil
		return
	}
	p.mu.Lock()
	for g.pending > 0 {
		if !p.runPlain(s) {
			p.work.Wait()
		}
	}
	p.mu.Unlock()
}

// pop removes and returns q's first element. Emptied, q keeps its array
// for the next push.
func pop[T any](q *[]T) T {
	v := (*q)[0]
	var zero T
	(*q)[0] = zero
	if len(*q) == 1 {
		*q = (*q)[:0]
	} else {
		*q = (*q)[1:]
	}
	return v
}
