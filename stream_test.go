package jportal

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/meta"
	"jportal/internal/profile"
	"jportal/internal/source"
	"jportal/internal/vm"
	"jportal/internal/workload"
)

// equalAnalyses asserts byte-identical reconstructions: steps, hole fills,
// segment flows and decode statistics per thread (times are wall-clock and
// excluded).
func equalAnalyses(t *testing.T, label string, want, got *Analysis) {
	t.Helper()
	if len(want.Threads) != len(got.Threads) {
		t.Fatalf("%s: thread count %d vs %d", label, len(want.Threads), len(got.Threads))
	}
	for i := range want.Threads {
		a, b := want.Threads[i], got.Threads[i]
		if a.Thread != b.Thread {
			t.Fatalf("%s: thread order diverged at %d (%d vs %d)", label, i, a.Thread, b.Thread)
		}
		if !reflect.DeepEqual(a.Steps, b.Steps) {
			t.Errorf("%s: thread %d steps diverge (%d vs %d)", label, a.Thread, len(a.Steps), len(b.Steps))
		}
		if !reflect.DeepEqual(a.Fills, b.Fills) {
			t.Errorf("%s: thread %d fills diverge", label, a.Thread)
		}
		if len(a.Flows) != len(b.Flows) {
			t.Errorf("%s: thread %d flow count %d vs %d", label, a.Thread, len(a.Flows), len(b.Flows))
		} else {
			for j := range a.Flows {
				if !reflect.DeepEqual(a.Flows[j].Nodes, b.Flows[j].Nodes) ||
					a.Flows[j].Skipped != b.Flows[j].Skipped {
					t.Errorf("%s: thread %d flow %d diverges", label, a.Thread, j)
					break
				}
			}
		}
		if a.Decode != b.Decode {
			t.Errorf("%s: thread %d decode stats diverge (%+v vs %+v)", label, a.Thread, a.Decode, b.Decode)
		}
		if a.RecoveredSteps != b.RecoveredSteps || a.DecodedSteps != b.DecodedSteps {
			t.Errorf("%s: thread %d step counts diverge", label, a.Thread)
		}
	}
}

// sessionAnalyze replays a finished run through a Session incrementally:
// sideband first, watermarks to infinity, then round-robin chunks of the
// per-core traces with a Drain after every round.
func sessionAnalyze(t *testing.T, s *workload.Subject, run *RunResult, cfg core.PipelineConfig, chunk int) *Analysis {
	t.Helper()
	ncores := 1
	for i := range run.Traces {
		if n := run.Traces[i].Core + 1; n > ncores {
			ncores = n
		}
	}
	sess, err := OpenSession(context.Background(), s.Program, run.Snapshot, ncores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.AddSideband(run.Sideband)
	for c := 0; c < ncores; c++ {
		sess.Watermark(c, math.MaxUint64)
	}
	offs := make([]int, len(run.Traces))
	for {
		progress := false
		for i := range run.Traces {
			items := run.Traces[i].Items
			if offs[i] >= len(items) {
				continue
			}
			end := offs[i] + chunk
			if end > len(items) {
				end = len(items)
			}
			if err := sess.Feed(run.Traces[i].Core, items[offs[i]:end]); err != nil {
				t.Fatal(err)
			}
			offs[i] = end
			progress = true
		}
		if !progress {
			break
		}
		if err := sess.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	an := sess.Close()
	// Everything was final under the infinite watermarks, so the stitcher
	// should have emitted incrementally rather than hoarding until Close.
	total := 0
	for i := range run.Traces {
		total += len(run.Traces[i].Items)
	}
	if chunk < total/4 && total > 1000 && sess.PeakBufferedItems() >= total {
		t.Errorf("chunk %d: peak buffered %d items, never emitted before Close (total %d)",
			chunk, sess.PeakBufferedItems(), total)
	}
	return an
}

// TestStreamingMatchesBatchAllSubjects is the golden equivalence check of
// the streaming refactor: for every benchmark subject, the incremental
// Session must reproduce the batch Analyze byte-for-byte at several chunk
// sizes and worker counts. The buffer is small
// enough that runs lose data, so the §5 recovery path is covered too.
func TestStreamingMatchesBatchAllSubjects(t *testing.T) {
	variants := []struct {
		name    string
		chunk   int
		workers int
	}{
		{"chunk7-serial", 7, 1},
		{"chunk256-parallel", 256, 3},
		{"chunk64-parallel", 64, 3},
		{"chunk1M-serial", 1 << 20, 1},
	}
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
		for _, v := range variants {
			cfg := core.DefaultPipelineConfig()
			cfg.Workers = v.workers
			got := sessionAnalyze(t, s, run, cfg, v.chunk)
			equalAnalyses(t, name+"/"+v.name, batch, got)
		}
	}
}

// TestSessionReportCoverage: the degradation report's coverage, folded
// per range of each thread's steps on the Close workers and merged, equals the statement
// coverage computed from the finished analysis' steps, for multi-thread
// and single-thread subjects, lossy and lossless, serial and parallel.
func TestSessionReportCoverage(t *testing.T) {
	for _, c := range []struct {
		name string
		buf  uint64
	}{{"h2", 16 << 10}, {"h2", 0}, {"batik", 16 << 10}, {"pmd", 0}} {
		s := workload.MustLoad(c.name, 0.25)
		rcfg := DefaultRunConfig()
		rcfg.CollectOracle = false
		if c.buf != 0 {
			rcfg.PT.BufBytes = c.buf
		}
		run, err := Run(s.Program, s.Threads, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			pcfg := core.DefaultPipelineConfig()
			pcfg.Workers = workers
			an := sessionAnalyze(t, s, run, pcfg, 256)
			want := profile.ComputeCoverage(s.Program, an.Threads).Ratio()
			if an.Report.Coverage != want || want == 0 {
				t.Errorf("%s buf %d workers %d: report coverage %v, want %v",
					c.name, c.buf, workers, an.Report.Coverage, want)
			}
		}
	}
}

// TestAnalyzeStreamedMatchesBatch checks the fully live path: collector →
// sink → Session with real (finite) watermarks, decoding against the
// growing snapshot, must equal a separate batch run (VM runs are
// deterministic).
func TestAnalyzeStreamedMatchesBatch(t *testing.T) {
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

	s2 := workload.MustLoad("h2", 0.5)
	_, streamed, err := AnalyzeStreamed(s2.Program, s2.Threads, rcfg, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	equalAnalyses(t, "live", batch, streamed)
}

// TestStreamArchiveRoundTrip collects a run into a chunked archive and
// checks that both consumers agree with each other and with a live batch
// run: AnalyzeStreamArchive (incremental replay) and LoadRun+Analyze (the
// batch materialisation of the same records).
func TestStreamArchiveRoundTrip(t *testing.T) {
	s := workload.MustLoad("fop", 0.3)
	rcfg := DefaultRunConfig()
	rcfg.CollectOracle = false
	rcfg.PT.BufBytes = 16 << 10
	rcfg.SinkChunkItems = 64

	dir := filepath.Join(t.TempDir(), "chunked")
	var w *StreamArchiveWriter
	_, err := RunWithSink(s.Program, s.Threads, rcfg,
		func(p *bytecode.Program, snap *meta.Snapshot, ncores int) (TraceSink, error) {
			var err error
			w, err = CreateStreamArchive(dir, p, snap, ncores)
			return w, err
		})
	if err != nil {
		t.Fatal(err)
	}

	// Unsealed: one-shot readers must refuse with a clear error.
	if _, _, err := AnalyzeStreamArchive(dir, core.DefaultPipelineConfig(), false, 0); err == nil {
		t.Fatal("analyzed an unsealed archive without follow")
	}
	if _, _, err := LoadRun(dir); err == nil {
		t.Fatal("batch-loaded an unsealed archive")
	}

	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}

	prog2, run2, err := LoadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	fromBatch, err := Analyze(prog2, run2, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, fromStream, err := AnalyzeStreamArchive(dir, core.DefaultPipelineConfig(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	equalAnalyses(t, "archive stream vs archive batch", fromBatch, fromStream)

	// And both equal a live batch run of the same subject (determinism).
	s2 := workload.MustLoad("fop", 0.3)
	run3, err := Run(s2.Program, s2.Threads, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	live, err := Analyze(s2.Program, run3, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	equalAnalyses(t, "archive vs live", live, fromStream)
}

// TestStreamArchiveFollow tails an archive whose seal arrives only after
// the follower has caught up with the flushed records.
func TestStreamArchiveFollow(t *testing.T) {
	s := workload.MustLoad("luindex", 0.25)
	rcfg := DefaultRunConfig()
	rcfg.CollectOracle = false
	rcfg.SinkChunkItems = 64

	dir := filepath.Join(t.TempDir(), "chunked")
	var w *StreamArchiveWriter
	if _, err := RunWithSink(s.Program, s.Threads, rcfg,
		func(p *bytecode.Program, snap *meta.Snapshot, ncores int) (TraceSink, error) {
			var err error
			w, err = CreateStreamArchive(dir, p, snap, ncores)
			return w, err
		}); err != nil {
		t.Fatal(err)
	}

	type result struct {
		an  *Analysis
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, an, err := AnalyzeStreamArchive(dir, core.DefaultPipelineConfig(), true, time.Millisecond)
		done <- result{an, err}
	}()
	// Let the follower reach the pending tail, then complete the archive.
	time.Sleep(20 * time.Millisecond)
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}

	prog2, run2, err := LoadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Analyze(prog2, run2, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	equalAnalyses(t, "follow", batch, r.an)
}

// TestStreamFollowInterruptKeepsAnalysis cancels a follower that is
// tailing an unsealed archive (as SIGINT does to jportal stream -follow):
// the replay returns the context's error, but the session it built still
// runs to completion, so the partial Analysis covers every record read —
// here all of them but the seal — and equals the sealed archive's.
func TestStreamFollowInterruptKeepsAnalysis(t *testing.T) {
	sealed := filepath.Join(t.TempDir(), "sealed")
	buildChunkedArchive(t, "h2", 0.3, sealed)
	_, want, err := AnalyzeStreamArchive(sealed, core.DefaultPipelineConfig(), false, 0)
	if err != nil {
		t.Fatal(err)
	}

	// An unsealed copy: the same records without the 5-byte seal record.
	dir := filepath.Join(t.TempDir(), "unsealed")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(sealed)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(sealed, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == StreamFileName {
			data = data[:len(data)-5]
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tctx := &tailingCtx{Context: ctx, tailing: make(chan struct{})}
	type result struct {
		an  *Analysis
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, an, err := AnalyzeStreamArchiveOpts(tctx, dir, core.DefaultPipelineConfig(),
			StreamOptions{Follow: true, Poll: time.Millisecond})
		done <- result{an, err}
	}()
	select {
	case <-tctx.tailing:
	case r := <-done:
		t.Fatalf("follower returned before tailing: %v", r.err)
	}
	cancel()
	r := <-done
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("interrupted follow returned %v, want context.Canceled", r.err)
	}
	if r.an == nil {
		t.Fatal("interrupted follow returned no partial analysis")
	}
	equalAnalyses(t, "interrupted follow", want, r.an)
	if r.an.Report.TimedOut {
		t.Error("partial analysis tagged TimedOut: the interrupt reached the session")
	}
}

// tailingCtx closes tailing the first time Done is called: the archive
// replay waits on Done only while it tails a pending archive.
type tailingCtx struct {
	context.Context
	once    sync.Once
	tailing chan struct{}
}

func (c *tailingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.tailing) })
	return c.Context.Done()
}

// TestArchiveVersioning pins the header gate: a sealed archive loads, and
// a directory with no header, a batch-layout header, the retired version
// 1, a future version or a malformed header fails in both readers with an
// error naming the problem.
func TestArchiveVersioning(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arch")
	buildChunkedArchive(t, "fop", 0.2, dir)
	if _, _, err := LoadRun(dir); err != nil {
		t.Fatalf("versioned archive: %v", err)
	}
	header := filepath.Join(dir, MetaFileName)
	for _, tc := range []struct{ name, meta, want string }{
		{"no header", "", "not a run archive"},
		{"batch layout", archiveMagicLine + "\nversion: 2\nlayout: batch\n", `layout "batch"`},
		{"version 1", archiveMagicLine + "\nversion: 1\nlayout: chunked\n", "version 1 "},
		{"future version", archiveMagicLine + "\nversion: 99\nlayout: chunked\n", "version 99 "},
		{"malformed", "junk\n", "malformed"},
	} {
		if err := os.Remove(header); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if tc.meta != "" {
			if err := os.WriteFile(header, []byte(tc.meta), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := LoadRun(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadRun err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if _, err := OpenStreamArchive(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: OpenStreamArchive err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadRunSortsCoresNumerically: a 12-core archive loads with one trace
// per core in ascending core order — the order Analyze requires — not in
// a lexical order that would put core 10 before core 2.
func TestLoadRunSortsCoresNumerically(t *testing.T) {
	s := workload.MustLoad("fop", 0.15)
	rcfg := DefaultRunConfig()
	rcfg.CollectOracle = false
	rcfg.VM.Cores = 12
	dir := filepath.Join(t.TempDir(), "arch")
	sealArchive(t, s.Program, s.Threads, rcfg, dir)
	_, run, err := LoadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Traces) != 12 {
		t.Fatalf("expected 12 core traces, got %d", len(run.Traces))
	}
	for i := range run.Traces {
		if run.Traces[i].Core != i {
			t.Fatalf("trace %d has core %d: not sorted numerically", i, run.Traces[i].Core)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	s := workload.MustLoad("fop", 0.1)
	snap := meta.NewSnapshot(meta.NewTemplateTable())
	if _, err := OpenSession(context.Background(), s.Program, nil, 1, core.DefaultPipelineConfig()); err == nil {
		t.Error("opened a session without a snapshot")
	}
	if _, err := OpenSession(context.Background(), s.Program, snap, 0, core.DefaultPipelineConfig()); err == nil {
		t.Error("opened a session with zero cores")
	}
	bad := core.DefaultPipelineConfig()
	bad.Workers = -1
	if _, err := OpenSession(context.Background(), s.Program, snap, 1, bad); err == nil {
		t.Error("opened a session with an invalid pipeline config")
	}

	sess, err := OpenSession(context.Background(), s.Program, snap, 2, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Feed(5, nil); err == nil {
		t.Error("fed an out-of-range core")
	}
	sess.Close()
	if err := sess.Feed(0, []source.Item{{}}); err == nil {
		t.Error("fed a closed session")
	}
	if err := sess.Drain(); err == nil {
		t.Error("drained a closed session")
	}

	rcfg := DefaultRunConfig()
	rcfg.VM.Cores = 0
	if _, err := Run(s.Program, s.Threads, rcfg); err == nil {
		t.Error("ran with zero cores")
	}
	rcfg = DefaultRunConfig()
	rcfg.SinkChunkItems = -1
	if _, err := Run(s.Program, s.Threads, rcfg); err == nil {
		t.Error("ran with a negative sink chunk size")
	}
	rcfg = DefaultRunConfig()
	rcfg.DisableTracing = true
	if _, err := RunWithSink(s.Program, s.Threads, rcfg,
		func(*bytecode.Program, *meta.Snapshot, int) (TraceSink, error) { return nil, nil }); err == nil {
		t.Error("RunWithSink accepted disabled tracing")
	}
}

func TestErrStreamPendingIsSentinel(t *testing.T) {
	if !errors.Is(ErrStreamPending, ErrStreamPending) {
		t.Fatal("sentinel mismatch")
	}
	_ = vm.SwitchRecord{}
}

// BenchmarkStreamingMemory reports the streaming pipeline's peak in-flight
// trace buffering against the total trace volume a batch analysis would
// hold at once. Run with -benchtime=1x for a smoke reading.
func BenchmarkStreamingMemory(b *testing.B) {
	s := workload.MustLoad("h2", 0.5)
	rcfg := DefaultRunConfig()
	rcfg.CollectOracle = false
	rcfg.PT.BufBytes = 16 << 10
	rcfg.SinkChunkItems = 128
	pcfg := core.DefaultPipelineConfig()

	var peak, total float64
	for i := 0; i < b.N; i++ {
		var sess *Session
		var fed int
		_, err := RunWithSink(s.Program, s.Threads, rcfg,
			func(p *bytecode.Program, snap *meta.Snapshot, ncores int) (TraceSink, error) {
				var err error
				sess, err = OpenSession(context.Background(), p, snap, ncores, pcfg)
				if err != nil {
					return nil, err
				}
				return countingSink{sess, &fed}, nil
			})
		if err != nil {
			b.Fatal(err)
		}
		sess.Close()
		peak = float64(sess.PeakBufferedItems())
		total = float64(fed)
	}
	b.ReportMetric(peak, "peak-items")
	b.ReportMetric(total, "total-items")
	if total > 0 {
		b.ReportMetric(peak/total, "peak/total")
	}
}

// countingSink forwards to a Session while tallying fed items (benchmark
// instrumentation).
type countingSink struct {
	s   *Session
	fed *int
}

func (c countingSink) AddBlobs(blobs []*meta.CompiledMethod) error { return c.s.AddBlobs(blobs) }

func (c countingSink) AddSideband(recs []vm.SwitchRecord) { c.s.AddSideband(recs) }
func (c countingSink) Watermark(core int, w uint64)       { c.s.Watermark(core, w) }
func (c countingSink) Feed(core int, items []source.Item) error {
	*c.fed += len(items)
	return c.s.Feed(core, items)
}
func (c countingSink) Drain() error { return c.s.Drain() }
