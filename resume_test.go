package jportal

// Tests for the robustness layer (DESIGN.md §11): crash-safe checkpointing
// with kill-and-resume byte-identity, corrupt-checkpoint fallback, deadline
// propagation yielding partial-but-valid analyses, and Session lifecycle
// edges.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jportal/internal/ckpt"
	"jportal/internal/core"
	"jportal/internal/fault"
	"jportal/internal/iofault"
	"jportal/internal/meta"
	"jportal/internal/source"
	"jportal/internal/vm"
	"jportal/internal/workload"
)

// buildChunkedArchive runs a subject with the streaming sink into a sealed
// chunked archive. The tiny PT buffer forces data loss, so the §5 recovery
// path is part of everything the checkpoint must reproduce.
func buildChunkedArchive(t *testing.T, name string, scale workload.Scale, dir string) {
	t.Helper()
	s := workload.MustLoad(name, scale)
	sealArchive(t, s.Program, s.Threads, goldenRunConfig(), dir)
}

// countArchiveRecords scans a sealed archive and returns its record count.
func countArchiveRecords(t *testing.T, dir string) int {
	t.Helper()
	r, err := OpenStreamArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
}

// TestKillAndResumeGoldenAllSubjects is the tentpole's acceptance check:
// for every workload subject, a replay killed mid-run (simulated process
// death: no Close, checkpoint left behind) and resumed from its checkpoint
// must produce an Analysis byte-identical to an uninterrupted replay —
// same steps, fills, flows, decode stats, and degradation report.
func TestKillAndResumeGoldenAllSubjects(t *testing.T) {
	for _, name := range workload.Names() {
		dir := filepath.Join(t.TempDir(), name)
		buildChunkedArchive(t, name, 0.25, dir)
		_, want, err := AnalyzeStreamArchive(dir, core.DefaultPipelineConfig(), false, 0)
		if err != nil {
			t.Fatalf("%s: uninterrupted replay: %v", name, err)
		}
		total := countArchiveRecords(t, dir)
		if total < 8 {
			t.Fatalf("%s: archive too small (%d records) to kill mid-run", name, total)
		}
		ckpt := filepath.Join(dir, CheckpointFileName)

		// First pass: checkpoint frequently and die halfway through.
		_, _, err = AnalyzeStreamArchiveOpts(context.Background(), dir, core.DefaultPipelineConfig(),
			StreamOptions{CheckpointPath: ckpt, CheckpointEvery: 2, stopAfterRecords: total / 2})
		if !errors.Is(err, errReplayAbandoned) {
			t.Fatalf("%s: abandoned replay = %v", name, err)
		}
		if _, err := os.Stat(ckpt); err != nil {
			t.Fatalf("%s: no checkpoint survived the kill: %v", name, err)
		}

		// Second pass: resume from the checkpoint and finish.
		_, got, err := AnalyzeStreamArchiveOpts(context.Background(), dir, core.DefaultPipelineConfig(),
			StreamOptions{CheckpointPath: ckpt, CheckpointEvery: 2, Resume: true})
		if err != nil {
			t.Fatalf("%s: resumed replay: %v", name, err)
		}
		equalAnalyses(t, name+"/kill-resume", want, got)
		if w, g := want.Report.String(), got.Report.String(); w != g {
			t.Errorf("%s: degradation reports diverge:\n--- uninterrupted\n%s\n--- resumed\n%s", name, w, g)
		}
		if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
			t.Errorf("%s: checkpoint not deleted after a completed run (err %v)", name, err)
		}
	}
}

// TestResumeWithCorruptCheckpointReplaysFresh: a damaged checkpoint must
// never poison the analysis — resume falls back to a full replay with the
// same output, and says so.
func TestResumeWithCorruptCheckpointReplaysFresh(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chunked")
	buildChunkedArchive(t, "fop", 0.2, dir)
	_, want, err := AnalyzeStreamArchive(dir, core.DefaultPipelineConfig(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := countArchiveRecords(t, dir)
	ckpt := filepath.Join(dir, CheckpointFileName)
	_, _, err = AnalyzeStreamArchiveOpts(context.Background(), dir, core.DefaultPipelineConfig(),
		StreamOptions{CheckpointPath: ckpt, CheckpointEvery: 2, stopAfterRecords: total / 2})
	if !errors.Is(err, errReplayAbandoned) {
		t.Fatalf("abandoned replay = %v", err)
	}

	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	resumeReplaysFresh(t, "corrupt-ckpt-fallback", dir, ckpt, want)
}

// resumeReplaysFresh resumes the replay of dir from the checkpoint at path,
// which must be unusable: the resume must log the fallback and replay to
// want, the uninterrupted analysis.
func resumeReplaysFresh(t *testing.T, label, dir, path string, want *Analysis) {
	t.Helper()
	var notices []string
	_, got, err := AnalyzeStreamArchiveOpts(context.Background(), dir, core.DefaultPipelineConfig(),
		StreamOptions{CheckpointPath: path, Resume: true,
			Logf: func(format string, args ...any) { notices = append(notices, fmt.Sprintf(format, args...)) }})
	if err != nil {
		t.Fatalf("%s: resume over an unusable checkpoint: %v", label, err)
	}
	equalAnalyses(t, label, want, got)
	found := false
	for _, n := range notices {
		if strings.Contains(n, "checkpoint unusable") {
			found = true
		}
	}
	if !found {
		t.Errorf("%s: no fallback notice logged; got %q", label, notices)
	}
}

// TestResumeRejectsCheckpointWithoutClock: a checkpoint whose segment has
// tokens but no clock (what a checkpoint written while tokens carried
// their own timestamps decodes to) must be refused as corrupt, and resume
// must fall back to a full replay with the same output, not resume with
// every timestamp of that segment read as 0.
func TestResumeRejectsCheckpointWithoutClock(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chunked")
	buildChunkedArchive(t, "pmd", 0.2, dir)
	_, want, err := AnalyzeStreamArchive(dir, core.DefaultPipelineConfig(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := countArchiveRecords(t, dir)
	path := filepath.Join(dir, CheckpointFileName)
	_, _, err = AnalyzeStreamArchiveOpts(context.Background(), dir, core.DefaultPipelineConfig(),
		StreamOptions{CheckpointPath: path, CheckpointEvery: 2, stopAfterRecords: total / 2})
	if !errors.Is(err, errReplayAbandoned) {
		t.Fatalf("abandoned replay = %v", err)
	}

	ck, err := ReadSessionCheckpoint(path)
	if err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
	stripped := false
	for i := range ck.Analyzers {
		if cur := ck.Analyzers[i].Tokenizer.Cur; cur != nil && len(cur.Tokens) > 0 {
			cur.Clock = nil
			stripped = true
			break
		}
	}
	if !stripped {
		t.Fatal("no analyzer has an open segment with tokens at the kill point")
	}
	if err := WriteSessionCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSessionCheckpoint(path); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("checkpoint without a clock: err %v, want ckpt.ErrCorrupt", err)
	}

	resumeReplaysFresh(t, "clockless-ckpt-fallback", dir, path, want)
}

// The stitcher item layout checkpoints carried before source.Item shrank
// to 32 bytes: a gap's flag and episode sat in fields of their own. Gob
// matches fields by name, so only the names and types matter here.
type (
	oldPacket struct {
		Kind    source.Kind
		IP      uint64
		Bits    uint64
		NBits   uint8
		TSC     uint64
		WireLen uint8
	}
	oldItem struct {
		Gap              bool
		Packet           oldPacket
		LostBytes        uint64
		GapStart, GapEnd uint64
	}
	oldWindow struct {
		Thread     int
		Start, End uint64
		Rec        int
		Items      []oldItem
	}
	oldCoreState struct {
		Recs    []vm.SwitchRecord
		Mark    uint64
		Pending []oldItem
		WI      int
		TSC     uint64
		Open    map[int][]oldItem
		Closed  []oldWindow
		FO      int
	}
	oldStitcherState struct {
		NCores, MaxThread int
		Cores             []oldCoreState
		LastThread        []int
		LastTSC           []uint64
		EmittedEnd        map[int]uint64
	}
	oldCheckpoint struct {
		NCores, Records, Peak int
		Stitcher              oldStitcherState
		Analyzers             []core.ThreadAnalyzerState
		Ledger                fault.LedgerState
	}
)

func toOldItems(items []source.Item) []oldItem {
	out := make([]oldItem, len(items))
	for i := range items {
		it := &items[i]
		if it.IsGap() {
			out[i] = oldItem{Gap: true, LostBytes: it.LostBytes(), GapStart: it.GapStart(), GapEnd: it.GapEnd()}
			continue
		}
		p := it.Packet
		out[i] = oldItem{Packet: oldPacket{Kind: p.Kind, IP: p.IP, Bits: p.Bits, NBits: p.NBits, TSC: p.TSC, WireLen: p.WireLen}}
	}
	return out
}

// toOldCheckpoint re-lays ck's stitcher items in the old layout.
func toOldCheckpoint(ck *SessionCheckpoint) *oldCheckpoint {
	st := &ck.Stitcher
	old := &oldCheckpoint{
		NCores: ck.NCores, Records: ck.Records, Peak: ck.Peak,
		Analyzers: ck.Analyzers, Ledger: ck.Ledger,
		Stitcher: oldStitcherState{
			NCores: st.NCores, MaxThread: st.MaxThread, LastThread: st.LastThread,
			LastTSC: st.LastTSC, EmittedEnd: st.EmittedEnd,
		},
	}
	for _, c := range st.Cores {
		oc := oldCoreState{
			Recs: c.Recs, Mark: c.Mark, Pending: toOldItems(c.Pending), WI: c.WI,
			TSC: c.TSC, Open: map[int][]oldItem{}, FO: c.FO,
		}
		for j, items := range c.Open {
			oc.Open[j] = toOldItems(items)
		}
		for _, w := range c.Closed {
			oc.Closed = append(oc.Closed, oldWindow{Thread: w.Thread, Start: w.Start, End: w.End, Rec: w.Rec, Items: toOldItems(w.Items)})
		}
		old.Stitcher.Cores = append(old.Stitcher.Cores, oc)
	}
	return old
}

// TestResumeRejectsCheckpointOfOldItemLayout: a checkpoint written with the
// old stitcher item layout gob-decodes without error, and every gap in it
// becomes a kind-0 packet. It must be refused as corrupt, and resume must
// replay to the uninterrupted analysis instead of misreading the gap.
func TestResumeRejectsCheckpointOfOldItemLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chunked")
	buildChunkedArchive(t, "pmd", 0.2, dir)
	_, want, err := AnalyzeStreamArchive(dir, core.DefaultPipelineConfig(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := countArchiveRecords(t, dir)
	path := filepath.Join(dir, CheckpointFileName)
	_, _, err = AnalyzeStreamArchiveOpts(context.Background(), dir, core.DefaultPipelineConfig(),
		StreamOptions{CheckpointPath: path, CheckpointEvery: 2, stopAfterRecords: total / 2})
	if !errors.Is(err, errReplayAbandoned) {
		t.Fatalf("abandoned replay = %v", err)
	}
	ck, err := ReadSessionCheckpoint(path)
	if err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}

	old := toOldCheckpoint(ck)
	pending := &old.Stitcher.Cores[0].Pending
	*pending = append(*pending, oldItem{Gap: true, LostBytes: 64, GapStart: 10, GapEnd: 20})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var misread SessionCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&misread); err != nil {
		t.Fatalf("old layout no longer gob-decodes, so this test no longer shows the hazard: %v", err)
	}
	if p := misread.Stitcher.Cores[0].Pending; p[len(p)-1] != (source.Item{}) {
		t.Fatalf("old-layout gap decoded as %+v, want the zero item the layout check exists for", p[len(p)-1])
	}

	if err := ckpt.WriteFile(iofault.OS, path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSessionCheckpoint(path); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("old-layout checkpoint: err %v, want ckpt.ErrCorrupt", err)
	}
	resumeReplaysFresh(t, "old-layout-ckpt-fallback", dir, path, want)
}

// TestResumePastArchiveEndIsAnError: a checkpoint claiming more records
// than the archive holds (wrong directory, truncated archive) must fail
// loudly, not silently produce a half-restored analysis.
func TestResumePastArchiveEndIsAnError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chunked")
	buildChunkedArchive(t, "fop", 0.15, dir)
	total := countArchiveRecords(t, dir)
	ckpt := filepath.Join(dir, CheckpointFileName)
	_, _, err := AnalyzeStreamArchiveOpts(context.Background(), dir, core.DefaultPipelineConfig(),
		StreamOptions{CheckpointPath: ckpt, CheckpointEvery: 2, stopAfterRecords: total / 2})
	if !errors.Is(err, errReplayAbandoned) {
		t.Fatalf("abandoned replay = %v", err)
	}
	ck, err := ReadSessionCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	ck.Records = total + 1000
	if err := WriteSessionCheckpoint(ckpt, ck); err != nil {
		t.Fatal(err)
	}
	if _, _, err := AnalyzeStreamArchiveOpts(context.Background(), dir, core.DefaultPipelineConfig(),
		StreamOptions{CheckpointPath: ckpt, Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "checkpoint covers") {
		t.Fatalf("oversized checkpoint = %v, want a clear error", err)
	}
}

// TestDeadlineYieldsPartialAnalysis: cancelling the session's context
// before Close must return promptly with a structurally valid partial
// Analysis tagged TimedOut, the un-reconstructed remainder quarantined
// under the deadline reason — never a hang, never a panic, never an error.
func TestDeadlineYieldsPartialAnalysis(t *testing.T) {
	s := workload.MustLoad("h2", 0.4)
	rcfg := DefaultRunConfig()
	rcfg.CollectOracle = false
	rcfg.PT.BufBytes = 16 << 10
	run, err := Run(s.Program, s.Threads, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	ncores := 1
	for i := range run.Traces {
		if n := run.Traces[i].Core + 1; n > ncores {
			ncores = n
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess, err := OpenSession(ctx, s.Program, run.Snapshot, ncores, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess.AddSideband(run.Sideband)
	for c := 0; c < ncores; c++ {
		sess.Watermark(c, math.MaxUint64)
	}
	for i := range run.Traces {
		if err := sess.Feed(run.Traces[i].Core, run.Traces[i].Items); err != nil {
			t.Fatal(err)
		}
	}
	// A clean Drain decodes and tokenizes, and segments that close are
	// reconstructed as they close; each thread's last segment closes only
	// at Close, so it is still pending when the context is cancelled and
	// the deadline cuts at the segment level. Drain is asynchronous toward
	// the workers: it stitches and sends the deltas, and a checkpoint waits
	// for the workers to analyse them before the cancel.
	if err := sess.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExportCheckpoint(0); err != nil {
		t.Fatal(err)
	}
	cancel()
	an, err := sess.Close()
	if err != nil {
		t.Fatalf("Close under a dead deadline: %v", err)
	}
	if an == nil || an.Report == nil {
		t.Fatal("no analysis returned")
	}
	if !an.Report.TimedOut {
		t.Error("Report.TimedOut = false after a cancelled Close")
	}
	if an.Report.SegmentsQuarantined == 0 {
		t.Error("nothing quarantined: the deadline seems not to have cut anything")
	}
	if an.Report.Quarantined["deadline"] == 0 {
		t.Errorf("no deadline-reason ledger entries: %v", an.Report.Quarantined)
	}
	if !strings.Contains(an.Report.String(), "timed out") {
		t.Errorf("report does not surface the timeout:\n%s", an.Report.String())
	}
	// The partial analysis must still be structurally sound: every flow
	// non-nil.
	for _, th := range an.Threads {
		for i, f := range th.Flows {
			if f == nil {
				t.Fatalf("thread %d flow %d is nil in a partial analysis", th.Thread, i)
			}
		}
	}
}

// TestSessionLifecycleEdges covers the remaining lifecycle satellite cases:
// double Close (idempotent, same result), Drain on an empty run, Close on a
// never-fed session, and Feed/Drain after Close.
func TestSessionLifecycleEdges(t *testing.T) {
	s := workload.MustLoad("fop", 0.1)
	snap := meta.NewSnapshot(meta.NewTemplateTable())

	// Empty run: Drain and Close on a session that never saw input.
	sess, err := OpenSession(context.Background(), s.Program, snap, 2, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Drain(); err != nil {
		t.Fatalf("Drain on an empty session: %v", err)
	}
	an, err := sess.Close()
	if err != nil {
		t.Fatalf("Close on an empty session: %v", err)
	}
	for _, th := range an.Threads {
		if len(th.Flows) != 0 || len(th.Steps) != 0 {
			t.Errorf("empty run produced %d flows and %d steps for thread %d", len(th.Flows), len(th.Steps), th.Thread)
		}
	}
	if an.Report == nil || an.Report.TimedOut {
		t.Error("empty run report missing or spuriously timed out")
	}

	// Double Close: idempotent, returns the same Analysis.
	an2, err := sess.Close()
	if err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if an2 != an {
		t.Error("second Close returned a different Analysis")
	}

	if err := sess.Drain(); err == nil {
		t.Error("Drain succeeded on a closed session")
	}
	if err := sess.Feed(0, nil); err == nil {
		t.Error("Feed succeeded on a closed session")
	}

	// Checkpointing a closed session is refused; so is restoring into one.
	if _, err := sess.ExportCheckpoint(1); err == nil {
		t.Error("ExportCheckpoint succeeded on a closed session")
	}
	if err := sess.RestoreCheckpoint(&SessionCheckpoint{NCores: 2}); err == nil {
		t.Error("RestoreCheckpoint succeeded on a closed session")
	}

	// Restoring into a session that already analysed input is refused.
	sess2, err := OpenSession(context.Background(), s.Program, meta.NewSnapshot(meta.NewTemplateTable()), 3, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.RestoreCheckpoint(&SessionCheckpoint{NCores: 2}); err == nil {
		t.Error("RestoreCheckpoint accepted a core-count mismatch")
	}
	if _, err := sess2.Close(); err != nil {
		t.Fatal(err)
	}
}
