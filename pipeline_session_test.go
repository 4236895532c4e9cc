package jportal

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"jportal/internal/conc"
	"jportal/internal/core"
	"jportal/internal/meta"
	"jportal/internal/trace"
	"jportal/internal/workload"
)

// atProcs runs fn at GOMAXPROCS 1 and at 2, so the staged session is proven
// on a single proc (stages time-slice one P) as well as with real overlap.
func atProcs(t *testing.T, fn func(t *testing.T, procs int)) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		fn(t, procs)
	}
}

// TestSessionMatchesBatchAllSubjects is the golden equivalence check of the
// staged session (DESIGN.md §12): for every benchmark subject, a Session fed
// in small chunks with a Drain per round — per-thread strands on one
// worker pool — must reproduce the batch Analyze byte-for-byte at every
// worker count, at GOMAXPROCS 1 and 2.
func TestSessionMatchesBatchAllSubjects(t *testing.T) {
	variants := []struct{ workers, chunk int }{{1, 7}, {3, 64}, {8, 256}}
	for _, name := range workload.Names() {
		s := workload.MustLoad(name, 0.25)
		rcfg := DefaultRunConfig()
		rcfg.CollectOracle = false
		rcfg.PT.BufBytes = 16 << 10
		run, err := Run(s.Program, s.Threads, rcfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		batch, err := Analyze(s.Program, run, core.DefaultPipelineConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		atProcs(t, func(t *testing.T, procs int) {
			for _, v := range variants {
				cfg := core.DefaultPipelineConfig()
				cfg.Workers = v.workers
				got := sessionAnalyze(t, s, run, cfg, v.chunk)
				equalAnalyses(t, fmt.Sprintf("%s/p%d-w%d", name, procs, v.workers), batch, got)
			}
		})
	}
}

// TestSessionLiveMatchesBatch runs the fully live path — collector sink
// feeding a Session while the VM is still compiling methods — and checks it
// against a batch run. This covers the per-thread snapshot replicas: each
// delta carries the blob log as routed, so every thread sees a dump before
// the first chunk that references it (§3.2 ordering).
func TestSessionLiveMatchesBatch(t *testing.T) {
	s := workload.MustLoad("h2", 0.5)
	rcfg := DefaultRunConfig()
	rcfg.CollectOracle = false
	rcfg.PT.BufBytes = 16 << 10
	rcfg.SinkChunkItems = 128

	run, err := Run(s.Program, s.Threads, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Analyze(s.Program, run, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}

	atProcs(t, func(t *testing.T, procs int) {
		for _, workers := range []int{2, 4} {
			s2 := workload.MustLoad("h2", 0.5)
			pcfg := core.DefaultPipelineConfig()
			pcfg.Workers = workers
			_, streamed, err := AnalyzeStreamed(s2.Program, s2.Threads, rcfg, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			equalAnalyses(t, fmt.Sprintf("live/p%d-w%d", procs, workers), batch, streamed)
		}
	})
}

// TestSessionBackPressure pins the session's in-flight bound (DESIGN.md
// §8): with every pool worker held by a blocking task, routing queues
// stageQueue×W deltas, blocks on the next, and resumes once the workers
// are released.
func TestSessionBackPressure(t *testing.T) {
	const workers, threads = 2, 3
	s := workload.MustLoad("fop", 0.1)
	cfg := core.DefaultPipelineConfig()
	cfg.Workers = workers
	sess, err := OpenSession(context.Background(), s.Program, meta.NewSnapshot(meta.NewTemplateTable()), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hold, held := make(chan struct{}), make(chan struct{}, workers)
	g := conc.NewGroup(sess.pool)
	for range workers {
		g.Go(func(*core.MatchScratch) { held <- struct{}{}; <-hold })
	}
	for range workers {
		<-held
	}

	bound := stageQueue * workers
	var routed atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range bound + 1 {
			sess.route([]trace.ThreadStream{{Thread: i % threads}})
			routed.Add(1)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); routed.Load() < int32(bound) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if n := routed.Load(); n != int32(bound) {
		t.Fatalf("%d deltas routed with every worker held, want the bound %d", n, bound)
	}
	close(hold)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("routing did not resume once the workers were released")
	}
	an := sess.Close()
	if n := sess.DeltasApplied(); n != uint64(bound+1) {
		t.Errorf("%d deltas applied, want %d", n, bound+1)
	}
	if len(an.Threads) != threads {
		t.Errorf("%d threads analysed, want %d", len(an.Threads), threads)
	}
}
