package jportal

// Tests for the per-segment analysis of the staged Session (DESIGN.md §7,
// §12): every segment a thread's tokenizer closes is reconstructed and
// prepared for recovery on whichever analyzer worker is free, while the
// stream is still being read. The results must be those of the cold path
// that reconstructs and prepares everything at the end, a checkpoint taken
// while segment tasks run must resume to the uninterrupted analysis, and a
// cancel must still leave a valid partial analysis and no goroutine.

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/workload"
)

// heavyLossRunConfig is batik's heavy-loss setup: 4KB buffers (the CLI's
// -buf 16) split its one thread into many segments, most of which close
// while the stream is still being read.
func heavyLossRunConfig() RunConfig {
	rcfg := DefaultRunConfig()
	rcfg.CollectOracle = false
	rcfg.PT.BufBytes = 4 << 10
	rcfg.SinkChunkItems = 64
	return rcfg
}

// TestSessionPreparedSegmentsRecoverAsCold: the flows and fills of a
// Session, whose workers reconstruct and prepare each segment as it
// closes, equal what core.NewRecoverer computes over the same segments
// reconstructed cold, with no cache prepared — the way the benchmark's
// traced replay calls the layers.
func TestSessionPreparedSegmentsRecoverAsCold(t *testing.T) {
	s := workload.MustLoad("batik", 0.5)
	run, err := Run(s.Program, s.Threads, heavyLossRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	pcfg := core.DefaultPipelineConfig()
	pcfg.Workers = 3
	an := sessionAnalyze(t, s, run, pcfg, 256)
	m := an.Pipeline.Matcher
	sc := m.NewScratch()
	holes := 0
	for _, th := range an.Threads {
		if len(th.Flows) < 2 {
			continue
		}
		cold := make([]*core.SegmentFlow, len(th.Flows))
		for i, f := range th.Flows {
			seg := &core.Segment{Tokens: f.Seg.Tokens, Clock: f.Seg.Clock, GapBefore: f.Seg.GapBefore}
			cold[i] = m.ReconstructSegmentScratch(sc, seg)
			if !reflect.DeepEqual(cold[i].Nodes, f.Nodes) {
				t.Fatalf("thread %d flow %d: session projection differs from the cold one", th.Thread, i)
			}
		}
		rec := core.NewRecoverer(m, cold, pcfg.Recovery)
		for i := 0; i < len(cold)-1; i++ {
			if fill := rec.RecoverHole(i); !reflect.DeepEqual(fill, th.Fills[i]) {
				t.Fatalf("thread %d hole %d: session fill (method %v, %d steps) differs from the cold one (method %v, %d steps)",
					th.Thread, i, th.Fills[i].Method, len(th.Fills[i].Steps), fill.Method, len(fill.Steps))
			}
			holes++
		}
	}
	if holes < 8 {
		t.Fatalf("only %d holes compared: the run lost too little", holes)
	}
}

// halfFeeder feeds one half of a finished run's per-core traces to a
// session in 256-item chunks, with a Drain after each, so the thread's
// segments close, and are queued for analysis, as the chunks arrive.
type halfFeeder struct {
	t      *testing.T
	run    *RunResult
	ncores int
}

func newHalfFeeder(t *testing.T, run *RunResult) *halfFeeder {
	f := &halfFeeder{t: t, run: run, ncores: 1}
	for i := range run.Traces {
		f.ncores = max(f.ncores, run.Traces[i].Core+1)
	}
	return f
}

// open starts a session over the run, with every switch record delivered
// and infinite watermarks, so every chunk is final as soon as it is fed.
func (f *halfFeeder) open(ctx context.Context, prog *bytecode.Program) *Session {
	sess, err := OpenSession(ctx, prog, f.run.Snapshot, f.ncores, core.DefaultPipelineConfig())
	if err != nil {
		f.t.Fatal(err)
	}
	sess.AddSideband(f.run.Sideband)
	for c := 0; c < f.ncores; c++ {
		sess.Watermark(c, math.MaxUint64)
	}
	return sess
}

// feed feeds the first half of every core's trace, or with second set the
// rest.
func (f *halfFeeder) feed(sess *Session, second bool) {
	for i := range f.run.Traces {
		items := f.run.Traces[i].Items
		from, to := 0, len(items)/2
		if second {
			from, to = to, len(items)
		}
		for off := from; off < to; off += 256 {
			if err := sess.Feed(f.run.Traces[i].Core, items[off:min(off+256, to)]); err != nil {
				f.t.Fatal(err)
			}
			if err := sess.Drain(); err != nil {
				f.t.Fatal(err)
			}
		}
	}
}

// checkpoint exports the session's checkpoint and requires it to hold at
// least two closed segments: their tasks were queued before it was taken.
func (f *halfFeeder) checkpoint(sess *Session) *SessionCheckpoint {
	ck, err := sess.ExportCheckpoint(0)
	if err != nil {
		f.t.Fatal(err)
	}
	closed := 0
	for _, a := range ck.Analyzers {
		closed += len(a.Pend)
	}
	if closed < 2 {
		f.t.Fatalf("%d segments closed in the first half: no segment task was queued", closed)
	}
	return ck
}

// TestSessionCheckpointWithSegmentJobsInFlight: a session checkpointed
// halfway through its input, while the tasks of the segments closed so far
// run, then killed and resumed from the checkpoint file, equals the
// uninterrupted session. The checkpoint carries the closed segments, not
// what their tasks computed; the resumed session analyzes them again.
func TestSessionCheckpointWithSegmentJobsInFlight(t *testing.T) {
	s := workload.MustLoad("batik", 0.5)
	run, err := Run(s.Program, s.Threads, heavyLossRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := newHalfFeeder(t, run)
	sess := f.open(context.Background(), s.Program)
	f.feed(sess, false)
	f.feed(sess, true)
	want, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}

	killed := f.open(context.Background(), s.Program)
	f.feed(killed, false)
	path := filepath.Join(t.TempDir(), CheckpointFileName)
	if err := WriteSessionCheckpoint(path, f.checkpoint(killed)); err != nil {
		t.Fatal(err)
	}
	killed.abandon()
	ck, err := ReadSessionCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := OpenSession(context.Background(), s.Program, run.Snapshot, f.ncores, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	f.feed(resumed, true)
	got, err := resumed.Close()
	if err != nil {
		t.Fatal(err)
	}
	equalAnalyses(t, "segment-jobs/checkpoint-resume", want, got)
	if w, g := want.Report.String(), got.Report.String(); w != g {
		t.Errorf("degradation reports diverge:\n--- uninterrupted\n%s\n--- resumed\n%s", w, g)
	}
}

// TestSessionCancelWithSegmentJobsInFlight: cancelling a session halfway
// through its input, with segments already queued for analysis, returns a
// partial Analysis that is structurally valid — every flow present and as
// long as its segment, TimedOut set, the cut recorded under the deadline
// reason — and the session leaves no goroutine behind.
func TestSessionCancelWithSegmentJobsInFlight(t *testing.T) {
	s := workload.MustLoad("batik", 0.5)
	run, err := Run(s.Program, s.Threads, heavyLossRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := newHalfFeeder(t, run)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := f.open(ctx, s.Program)
	f.feed(sess, false)
	f.checkpoint(sess)
	cancel()
	f.feed(sess, true)
	an, err := sess.Close()
	if err != nil {
		t.Fatalf("Close after a cancel: %v", err)
	}
	if !an.Report.TimedOut {
		t.Error("Report.TimedOut = false after a cancel")
	}
	if an.Report.Quarantined["deadline"] == 0 {
		t.Errorf("no deadline-reason ledger entries: %v", an.Report.Quarantined)
	}
	for _, th := range an.Threads {
		if len(th.Fills) != len(th.Flows) {
			t.Errorf("thread %d: %d fills for %d flows", th.Thread, len(th.Fills), len(th.Flows))
		}
		for i, f := range th.Flows {
			if f == nil {
				t.Fatalf("thread %d flow %d is nil in a partial analysis", th.Thread, i)
			}
			if len(f.Nodes) != len(f.Seg.Tokens) {
				t.Errorf("thread %d flow %d: %d nodes for %d tokens", th.Thread, i, len(f.Nodes), len(f.Seg.Tokens))
			}
		}
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Fatalf("%d goroutines left behind by the cancelled session", n-before)
	}
}
