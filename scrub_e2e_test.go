package jportal_test

// End-to-end tests of the storage-durability loop (DESIGN.md §16): a real
// collected archive, a partial upload killed mid-push, a torn tail planted
// the way a crashed disk leaves one, then `scrub -repair` + a resumed push
// — and the final archive must come out byte-identical to the local one.

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"jportal"
	"jportal/internal/ingest"
	"jportal/internal/ingest/client"
	"jportal/internal/scrub"
	"jportal/internal/streamfmt"
)

const scrubChunkBytes = 4096

func TestScrubRepairTornTailThenResume(t *testing.T) {
	localDir := filepath.Join(t.TempDir(), "local")
	collectArchive(t, "fop", localDir)
	dataDir := t.TempDir()
	const id = "torn-session"

	stream, err := os.ReadFile(filepath.Join(localDir, jportal.StreamFileName))
	if err != nil {
		t.Fatal(err)
	}
	programGob, err := os.ReadFile(filepath.Join(localDir, jportal.ProgramFileName))
	if err != nil {
		t.Fatal(err)
	}
	ncores, err := streamfmt.ParseHeader(stream)
	if err != nil {
		t.Fatal(err)
	}
	// The push client's own batching, so a partial upload followed by a
	// resumed PushArchive (same MaxChunkBytes) reproduces the same frame
	// sequence.
	batches, err := client.ChunkFrames(stream[streamfmt.HeaderLen:], scrubChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) < 4 {
		t.Fatalf("archive too small to interrupt meaningfully: %d batches", len(batches))
	}

	// Phase 1: upload the program and the first half of the chunk batches,
	// then drop the connection without FIN — the shape a killed agent
	// leaves behind.
	srv1, addr1 := startManagedIngest(t, dataDir)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	p, err := client.Dial(ctx, client.Options{Addr: addr1, SessionID: id, MaxChunkBytes: scrubChunkBytes}, ncores)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send(ingest.FrameProgram, programGob); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:len(batches)/2] {
		if _, err := p.Send(ingest.FrameChunk, b); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv1.Shutdown(shutCtx) // drains the queue; the frontier is durable
	shutCancel()

	sessDir := filepath.Join(dataDir, id)
	st, err := ingest.ReadSessionState(sessDir)
	if err != nil {
		t.Fatalf("no durable frontier after partial upload: %v", err)
	}
	if st.Sealed || st.Size <= streamfmt.HeaderLen {
		t.Fatalf("unexpected frontier after partial upload: %+v", st)
	}

	// Phase 2: plant the torn tail — a chunk record's first 6 bytes, the
	// way a torn write past the last fsync ends up on disk.
	f, err := os.OpenFile(filepath.Join(sessDir, jportal.StreamFileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{streamfmt.TagChunk, 0, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Phase 3: scrub-and-repair must classify the tear and truncate back
	// to the durable frontier, exactly as the server's own restore would.
	rep, err := scrub.Run(scrub.Config{DataDir: dataDir, Repair: true,
		Logf: func(format string, a ...any) { t.Logf("scrub: "+format, a...) }})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornRepaired != 1 {
		t.Fatalf("TornRepaired = %d\n%s", rep.TornRepaired, scrub.FormatReport(rep))
	}
	fi, err := os.Stat(filepath.Join(sessDir, jportal.StreamFileName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != st.Size {
		t.Fatalf("repaired stream is %d bytes, want the %d-byte frontier", fi.Size(), st.Size)
	}

	// Phase 4: the agent comes back and re-pushes the whole archive; the
	// resume must skip past the repaired frontier and finish.
	_, addr2 := startManagedIngest(t, dataDir)
	stats, err := client.PushArchive(ctx, client.Options{
		Addr: addr2, SessionID: id, MaxChunkBytes: scrubChunkBytes,
	}, localDir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResumeSeq == 0 {
		t.Fatal("push restarted from scratch; expected a resume past the repaired frontier")
	}
	assertSameArchive(t, localDir, dataDir, id)
}

// TestScrubLeavesCompleteUploadUntouched: scrub-and-repair over a freshly
// ingested archive is a no-op, byte for byte.
func TestScrubLeavesCompleteUploadUntouched(t *testing.T) {
	localDir := filepath.Join(t.TempDir(), "local")
	collectArchive(t, "avrora", localDir)
	dataDir := t.TempDir()
	const id = "clean-session"

	_, addr := startIngestServer(t, ingest.Config{DataDir: dataDir})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := client.PushArchive(ctx, client.Options{Addr: addr, SessionID: id}, localDir); err != nil {
		t.Fatal(err)
	}

	rep, err := scrub.Run(scrub.Config{DataDir: dataDir, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean != 1 || rep.Damaged != 0 {
		t.Fatalf("clean=%d damaged=%d\n%s", rep.Clean, rep.Damaged, scrub.FormatReport(rep))
	}
	assertSameArchive(t, localDir, dataDir, id)
}

// startManagedIngest starts an ingest server the test shuts down itself
// (mid-test restarts), falling back to a Cleanup for the failure paths.
func startManagedIngest(t *testing.T, dataDir string) (*ingest.Server, string) {
	t.Helper()
	srv, err := ingest.NewServer(ingest.Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}
