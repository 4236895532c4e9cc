package jportal_test

// Property-style robustness tests of stream.jpt parsing: every truncation
// and every deterministic single-byte flip of a valid sealed archive must
// surface as an error — never a panic, and never a silently shortened
// analysis. The seal record's CRC-32 is what makes the "every flip"
// guarantee possible: damage that survives the structural checks cannot
// also match the checksum.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"jportal"
	"jportal/internal/core"
	"jportal/internal/source"
	"jportal/internal/streamfmt"
	"jportal/internal/vm"
	"jportal/internal/workload"
)

// collectSmallArchive seals a small chunked archive to mutate.
func collectSmallArchive(t *testing.T, dir string) {
	t.Helper()
	s := workload.MustLoad("fop", 0.15)
	rcfg := jportal.DefaultRunConfig()
	rcfg.CollectOracle = false
	rcfg.PT.BufBytes = 16 << 10
	rcfg.SinkChunkItems = 64
	if _, err := jportal.CollectArchive(dir, s.Program, s.Threads, rcfg); err != nil {
		t.Fatal(err)
	}
}

// cloneArchive copies an archive directory, substituting stream for the
// stream.jpt contents (nil keeps the original).
func cloneArchive(t *testing.T, src, dst string, stream []byte) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == jportal.StreamFileName && stream != nil {
			data = stream
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func analyzeDir(dir string) (err error) {
	_, _, err = jportal.AnalyzeStreamArchive(dir, core.DefaultPipelineConfig(), false, 0)
	return err
}

func TestStreamArchiveCorruptionIsAlwaysAnError(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base")
	collectSmallArchive(t, base)
	stream, err := os.ReadFile(filepath.Join(base, jportal.StreamFileName))
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: an untouched clone analyzes fine.
	clean := filepath.Join(t.TempDir(), "clean")
	cloneArchive(t, base, clean, nil)
	if err := analyzeDir(clean); err != nil {
		t.Fatalf("clean clone failed: %v", err)
	}

	// Single-byte flips at deterministic pseudo-random positions across
	// the whole file (header, records, seal): each must yield an error.
	// The bit flipped also varies so tags, length fields and payload bits
	// are all hit.
	const flips = 48
	sawCorrupt := false
	for i := 0; i < flips; i++ {
		pos := int(uint64(i) * 2654435761 % uint64(len(stream)))
		mutated := append([]byte(nil), stream...)
		mutated[pos] ^= 1 << (i % 8)
		dir := filepath.Join(t.TempDir(), "flip")
		cloneArchive(t, base, dir, mutated)
		err := analyzeDir(dir)
		if err == nil {
			t.Fatalf("flip %d (byte %d, bit %d) analyzed without error", i, pos, i%8)
		}
		if errors.Is(err, streamfmt.ErrCorrupt) {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Error("no flip surfaced as streamfmt.ErrCorrupt (taxonomy lost?)")
	}

	// Truncations at interesting boundaries: all are "unsealed or damaged",
	// never success, never a panic.
	cuts := []int{0, 3, streamfmt.HeaderLen - 1, streamfmt.HeaderLen,
		streamfmt.HeaderLen + 1, len(stream) / 2, len(stream) - 6, len(stream) - 1}
	for _, cut := range cuts {
		dir := filepath.Join(t.TempDir(), "cut")
		cloneArchive(t, base, dir, stream[:cut])
		if err := analyzeDir(dir); err == nil {
			t.Fatalf("truncation to %d bytes analyzed without error", cut)
		}
	}

	// A damaged program.gob is an error too.
	dir := filepath.Join(t.TempDir(), "gob")
	cloneArchive(t, base, dir, nil)
	gob, err := os.ReadFile(filepath.Join(dir, jportal.ProgramFileName))
	if err != nil {
		t.Fatal(err)
	}
	gob[len(gob)/2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, jportal.ProgramFileName), gob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := analyzeDir(dir); err == nil {
		t.Fatal("corrupt program.gob analyzed without error")
	}
}

// TestSessionErrorPathsLeaveNoGoroutines: every Session owns stage
// goroutines, so the entry points that open one must release it on their
// error paths too — a Feed error in Analyze, a RunWithSink error in
// AnalyzeStreamed, and a replay of a damaged archive.
func TestSessionErrorPathsLeaveNoGoroutines(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base")
	collectSmallArchive(t, base)
	stream, err := os.ReadFile(filepath.Join(base, jportal.StreamFileName))
	if err != nil {
		t.Fatal(err)
	}
	s := workload.MustLoad("fop", 0.15)
	rcfg := jportal.DefaultRunConfig()
	rcfg.CollectOracle = false
	run, err := jportal.Run(s.Program, s.Threads, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := core.DefaultPipelineConfig()
	before := runtime.NumGoroutine()

	bad := *run
	bad.Traces = []source.CoreTrace{{Core: -1, Items: run.Traces[0].Items}}
	if _, err := jportal.Analyze(s.Program, &bad, pcfg); err == nil {
		t.Error("Analyze accepted a trace for core -1")
	}
	if _, _, err := jportal.AnalyzeStreamed(s.Program, []vm.ThreadSpec{}, rcfg, pcfg); err == nil {
		t.Error("AnalyzeStreamed ran with no threads")
	}
	flipped := append([]byte(nil), stream...)
	flipped[len(flipped)/2] ^= 0x10
	for i, damaged := range [][]byte{stream[:len(stream)/2], flipped} {
		dir := filepath.Join(t.TempDir(), "damaged")
		cloneArchive(t, base, dir, damaged)
		if err := analyzeDir(dir); err == nil {
			t.Errorf("damaged archive %d analyzed without error", i)
		}
	}

	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Fatalf("%d goroutines left behind by the error paths", n-before)
	}
}

// TestArchiveRecordBeforeSnapshotRefused: the snapshot record must come
// first, because every later record is read against it. An archive whose
// first record is a chunk (the snapshot follows it) is refused by both
// readers, the batch LoadRun and the streaming replay, and the refusal
// leaves no session goroutine behind.
func TestArchiveRecordBeforeSnapshotRefused(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base")
	collectSmallArchive(t, base)
	_, run, err := jportal.LoadRun(base)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc, err := streamfmt.NewEncoder(&buf, len(run.Traces))
	if err != nil {
		t.Fatal(err)
	}
	enc.Feed(0, run.Traces[0].Items[:64])
	enc.Snapshot(run.Snapshot)
	if err := enc.Seal(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "chunk-first")
	cloneArchive(t, base, dir, buf.Bytes())

	before := runtime.NumGoroutine()
	const want = "chunk record before snapshot"
	if _, _, err := jportal.LoadRun(dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("LoadRun: err = %v, want %q", err, want)
	}
	_, _, err = jportal.AnalyzeStreamArchiveOpts(context.Background(), dir, core.DefaultPipelineConfig(), jportal.StreamOptions{})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("AnalyzeStreamArchiveOpts: err = %v, want %q", err, want)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Fatalf("%d goroutines left behind by the refusals", n-before)
	}
}
