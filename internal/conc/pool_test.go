package conc

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// workerState is a pool worker's state in these tests: its index, and how
// many leaf tasks are running on it (never more than one).
type workerState struct {
	id   int32
	busy atomic.Int32
}

// TestPoolProperties drives strands whose tasks each wait for a group of
// plain tasks, and checks the pool's contract for several worker counts:
// every task runs exactly once, a strand's tasks run in post order and
// never two at once, each worker's state is made once and used by one
// leaf task at a time, and at most W tasks compute at once although every
// strand task waits on a group.
func TestPoolProperties(t *testing.T) {
	const strands, perStrand, fanout = 6, 20, 8
	for _, w := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			var states, active, peak atomic.Int32
			enter := func() {
				n := active.Add(1)
				for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
				}
			}
			p := NewPool(w, strands*perStrand, func() *workerState { return &workerState{id: states.Add(1)} })
			ran := make([][]atomic.Int32, strands)
			plainRan := make([][][]atomic.Int32, strands)
			for i := range ran {
				ran[i] = make([]atomic.Int32, perStrand)
				plainRan[i] = make([][]atomic.Int32, perStrand)
				for k := range plainRan[i] {
					plainRan[i][k] = make([]atomic.Int32, fanout)
				}
			}
			for i := range strands {
				st := p.NewStrand()
				var running atomic.Bool
				next := 0 // the post index the strand's next task must have
				for k := range perStrand {
					st.Post(func(s *workerState) {
						if !running.CompareAndSwap(false, true) {
							t.Errorf("strand %d: task %d ran beside another of its tasks", i, k)
						}
						if next != k {
							t.Errorf("strand %d: task %d ran where task %d was due", i, k, next)
						}
						next++
						ran[i][k].Add(1)
						enter()
						g := NewGroup(p)
						for f := range fanout {
							g.Go(func(s *workerState) {
								enter()
								if s.busy.Add(1) != 1 {
									t.Errorf("worker state %d shared by two running tasks", s.id)
								}
								time.Sleep(20 * time.Microsecond)
								plainRan[i][k][f].Add(1)
								s.busy.Add(-1)
								active.Add(-1)
							})
						}
						active.Add(-1)
						g.Wait(s)
						enter()
						running.Store(false)
						active.Add(-1)
					})
				}
			}
			p.Quiesce()
			for i := range ran {
				for k := range ran[i] {
					if n := ran[i][k].Load(); n != 1 {
						t.Errorf("strand %d task %d ran %d times by Quiesce", i, k, n)
					}
					for f := range plainRan[i][k] {
						if n := plainRan[i][k][f].Load(); n != 1 {
							t.Errorf("strand %d task %d: plain task %d ran %d times", i, k, f, n)
						}
					}
				}
			}
			p.Close()
			if n := states.Load(); n != int32(w) {
				t.Errorf("made %d worker states, want %d", n, w)
			}
			if m := peak.Load(); m > int32(w) {
				t.Errorf("%d tasks computed at once on %d workers", m, w)
			}
		})
	}
}

// TestStrandPostWhileRunning: a task posted while its strand's only
// task runs waits for it, although another worker is idle.
func TestStrandPostWhileRunning(t *testing.T) {
	p := NewPool(2, 2, func() struct{} { return struct{}{} })
	st := p.NewStrand()
	started, release := make(chan struct{}), make(chan struct{})
	var running atomic.Bool
	task := func(wait bool) func(struct{}) {
		return func(struct{}) {
			if !running.CompareAndSwap(false, true) {
				t.Error("two tasks of one strand ran at once")
			}
			if wait {
				close(started)
				<-release
			}
			running.Store(false)
		}
	}
	st.Post(task(true))
	<-started
	st.Post(task(false))
	time.Sleep(5 * time.Millisecond) // an idle worker would take it by now
	close(release)
	p.Close()
}

// TestPoolOneWorkerWaitHelps: on a one-worker pool a strand task waits for
// plain tasks that only its own worker can run. The wait runs them, so the
// strand completes; a wait that only blocked would deadlock.
func TestPoolOneWorkerWaitHelps(t *testing.T) {
	p := NewPool(1, 1, func() struct{} { return struct{}{} })
	var sum atomic.Int32
	done := make(chan struct{})
	p.NewStrand().Post(func(s struct{}) {
		g := NewGroup(p)
		for i := range 10 {
			g.Go(func(struct{}) { sum.Add(int32(i)) })
		}
		g.Wait(s)
		close(done)
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("strand task waiting on its group never finished: the wait does not help")
	}
	p.Close()
	if sum.Load() != 45 {
		t.Fatalf("plain tasks summed %d, want 45", sum.Load())
	}
}

// TestPoolPostBlocksAtLimit: with every worker held, Post returns for the
// first limit tasks and blocks on the next until a worker takes one.
func TestPoolPostBlocksAtLimit(t *testing.T) {
	const w, limit = 2, 3
	p := NewPool(w, limit, func() struct{} { return struct{}{} })
	hold, held := make(chan struct{}), make(chan struct{}, w)
	for range w {
		p.NewStrand().Post(func(struct{}) { held <- struct{}{}; <-hold })
	}
	for range w {
		<-held
	}
	st := p.NewStrand()
	var posted atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range limit + 1 {
			st.Post(func(struct{}) {})
			posted.Add(1)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); posted.Load() < limit && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := posted.Load(); n != limit {
		t.Fatalf("%d posts returned with every worker held, want %d", n, limit)
	}
	close(hold)
	<-done
	p.Quiesce()
	if n := posted.Load(); n != limit+1 {
		t.Fatalf("%d posts returned after the workers were released, want %d", n, limit+1)
	}
	p.Close()
}

// TestGroupWithoutPoolRunsInline: a poolless group defers its tasks to
// Wait and runs them there, in order, on the waiter's state.
func TestGroupWithoutPoolRunsInline(t *testing.T) {
	g := NewGroup[*[]int](nil)
	var order []int
	for i := range 5 {
		g.Go(func(s *[]int) { *s = append(*s, i) })
	}
	if len(order) != 0 {
		t.Fatal("a poolless group ran a task before Wait")
	}
	g.Wait(&order)
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("inline order %v", order)
	}
}
