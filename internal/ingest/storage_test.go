package ingest

// White-box tests of the storage-durability write path (DESIGN.md §16):
// the persist-before-ACK rollback when ingest.state cannot be written, and
// the typed poison after repeated failures. These drive session.archive
// directly with a failing filesystem, which the public Config surface (an
// *iofault.Injector) cannot produce deterministically enough for a
// three-strikes assertion.

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"

	"jportal"
	"jportal/internal/iofault"
	"jportal/internal/streamfmt"
)

// failTempFS delegates to the real filesystem but fails CreateTemp — the
// first step of every atomic state write — while armed.
type failTempFS struct {
	iofault.FS
	fail bool
}

func (f *failTempFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	if f.fail {
		return nil, iofault.ErrIO
	}
	return f.FS.CreateTemp(dir, pattern)
}

// watermarkRecord builds one valid watermark record (a minimal chunk
// payload that passes streamfmt.Scan).
func watermarkRecord(core uint32, mark uint64) []byte {
	rec := make([]byte, 13)
	rec[0] = streamfmt.TagWatermark
	binary.LittleEndian.PutUint32(rec[1:], core)
	binary.LittleEndian.PutUint64(rec[5:], mark)
	return rec
}

func TestStatePersistFailureRollsBackThenPoisons(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{DataDir: dataDir}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	srv := &Server{cfg: cfg, sessions: map[string]*session{}, conns: map[net.Conn]struct{}{}, force: make(chan struct{})}

	dir := filepath.Join(dataDir, "s")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	hdr := streamfmt.AppendHeader(nil, 1)
	path := filepath.Join(dir, jportal.StreamFileName)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := iofault.OS.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(int64(len(hdr)), 0); err != nil {
		t.Fatal(err)
	}
	fsys := &failTempFS{FS: iofault.OS}
	sess := &session{
		srv: srv, id: "s", dir: dir, ncores: 1, fsys: fsys, f: f,
		size: int64(len(hdr)), cur: streamfmt.NewCursor(1),
	}
	if err := sess.persistState(); err != nil {
		t.Fatal(err)
	}

	rec := watermarkRecord(0, 100)
	fsys.fail = true
	// The first maxPersistFails-1 failures are shed as storage errors; the
	// frame — bytes and frontier — must be fully rolled back each time so
	// the client's resend of the same sequence replays cleanly.
	for i := 1; i < maxPersistFails; i++ {
		err := sess.archive(msg{typ: FrameChunk, seq: 1, data: rec})
		var storage *storageError
		if !errors.As(err, &storage) {
			t.Fatalf("failure %d: err = %v, want a storage shed", i, err)
		}
		if sess.lastAcked != 0 || sess.size != int64(len(hdr)) {
			t.Fatalf("failure %d: frontier not rolled back: acked=%d size=%d", i, sess.lastAcked, sess.size)
		}
		got, _ := os.ReadFile(path)
		if len(got) != len(hdr) {
			t.Fatalf("failure %d: appended bytes not rolled back: %d bytes on disk", i, len(got))
		}
	}
	// The final consecutive failure crosses the threshold: a typed
	// ErrStatePersist the writer turns into a poison, not another shed.
	err = sess.archive(msg{typ: FrameChunk, seq: 1, data: rec})
	if !errors.Is(err, ErrStatePersist) {
		t.Fatalf("failure %d: err = %v, want ErrStatePersist", maxPersistFails, err)
	}
	if n := srv.metrics.StatePersistErrors.Load(); n != int64(maxPersistFails) {
		t.Fatalf("StatePersistErrors = %d, want %d", n, maxPersistFails)
	}

	// Recovery resets the consecutive-failure count and archives normally.
	fsys.fail = false
	sess.persistFails = 0
	if err := sess.archive(msg{typ: FrameChunk, seq: 1, data: rec}); err != nil {
		t.Fatalf("archive after recovery: %v", err)
	}
	if sess.lastAcked != 1 || sess.size != int64(len(hdr)+len(rec)) {
		t.Fatalf("frontier after recovery: acked=%d size=%d", sess.lastAcked, sess.size)
	}
	st, err := ReadSessionState(dir)
	if err != nil || st.Seq != 1 || st.Size != sess.size {
		t.Fatalf("persisted state after recovery: %+v, %v", st, err)
	}
}

// TestWriterDropsStaleFrames pins the writer-side ordering guard: after a
// storage shed leaves a hole, queued frames ahead of the frontier are
// dropped silently (no poison, no ACK), and duplicates of archived frames
// are re-ACKed idempotently.
func TestWriterDropsStaleFrames(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{DataDir: dataDir}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	srv := &Server{cfg: cfg, sessions: map[string]*session{}, conns: map[net.Conn]struct{}{}, force: make(chan struct{})}
	dir := filepath.Join(dataDir, "s")
	os.MkdirAll(dir, 0o755)
	hdr := streamfmt.AppendHeader(nil, 1)
	path := filepath.Join(dir, jportal.StreamFileName)
	os.WriteFile(path, hdr, 0o644)
	f, err := iofault.OS.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Seek(int64(len(hdr)), 0)
	sess := &session{
		srv: srv, id: "s", dir: dir, ncores: 1, fsys: iofault.OS, f: f,
		size: int64(len(hdr)), cur: streamfmt.NewCursor(1),
	}

	// seq 2 with frontier at 0: ahead of the hole, silently dropped.
	if err := sess.archive(msg{typ: FrameChunk, seq: 2, data: watermarkRecord(0, 100)}); !errors.Is(err, errStaleFrame) {
		t.Fatalf("ahead-of-frontier frame: err = %v, want errStaleFrame", err)
	}
	if sess.size != int64(len(hdr)) {
		t.Fatal("stale frame touched the archive")
	}
	// In-order frame archives.
	if err := sess.archive(msg{typ: FrameChunk, seq: 1, data: watermarkRecord(0, 100)}); err != nil {
		t.Fatal(err)
	}
	// Duplicate of an archived frame: idempotent, no error, no growth.
	size := sess.size
	if err := sess.archive(msg{typ: FrameChunk, seq: 1, data: watermarkRecord(0, 100)}); err != nil {
		t.Fatalf("duplicate frame: %v", err)
	}
	if sess.size != size {
		t.Fatal("duplicate frame extended the archive")
	}
	if n := srv.metrics.Duplicates.Load(); n != 1 {
		t.Fatalf("Duplicates = %d, want 1", n)
	}
}
