package ingest_test

// Admission-control and load-shedding tests: the BUSY handshake, the global
// memory budget, the NACK circuit breaker, and the torn-state fallback
// (DESIGN.md §11).

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jportal/internal/ingest"
	"jportal/internal/ingest/client"
	"jportal/internal/streamfmt"
)

// dialRawExpectBusy performs a handshake that must be answered BUSY and
// returns the retry-after hint.
func dialRawExpectBusy(t *testing.T, addr, id string) time.Duration {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := ingest.WriteFrame(c, ingest.FrameHello,
		ingest.AppendHelloSource(nil, ingest.ProtoVersion, 2, id, "")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ingest.ReadFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if typ != ingest.FrameBusy {
		t.Fatalf("got frame %#x, want BUSY", typ)
	}
	ms, err := ingest.ParseBusy(payload)
	if err != nil {
		t.Fatal(err)
	}
	return time.Duration(ms) * time.Millisecond
}

func TestSessionCapAnswersBusy(t *testing.T) {
	dataDir := t.TempDir()
	srv, addr := startServer(t, ingest.Config{DataDir: dataDir, MaxSessions: 1})
	gob := testProgramGob(t)
	stream := buildStream(t, 2, 4)

	// Occupy the only admission slot.
	holder, err := client.Dial(context.Background(),
		client.Options{Addr: addr, SessionID: "holder"}, 2)
	if err != nil {
		t.Fatal(err)
	}

	// A HELLO past the cap earns BUSY with a positive retry hint.
	if retry := dialRawExpectBusy(t, addr, "refused"); retry <= 0 {
		t.Fatalf("BUSY retry-after = %v, want > 0", retry)
	}
	if n := srv.Metrics().BusyRejections.Load(); n != 1 {
		t.Fatalf("BusyRejections = %d, want 1", n)
	}

	// A Pusher refused with BUSY backs off and redials rather than failing:
	// free the slot while it waits and the upload completes normally.
	done := make(chan error, 1)
	go func() {
		defer close(done)
		p := pushStream(t, client.Options{Addr: addr, SessionID: "waiter", MaxChunkBytes: 256}, gob, stream)
		p.Close()
	}()
	time.Sleep(100 * time.Millisecond)
	holder.Close()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("busy-refused pusher never completed")
	}
	assertArchived(t, dataDir, "waiter", gob, stream)
}

func TestMemoryBudgetShedsFrames(t *testing.T) {
	srv, addr := startServer(t, ingest.Config{DataDir: t.TempDir(), MemoryBudgetBytes: 64})
	r := dialRaw(t, addr, "overbudget", 2)
	// One frame bigger than the whole budget can never be enqueued: it is
	// shed with a NACK asking for the same sequence again.
	r.send(ingest.FrameChunk, 1, make([]byte, 128))
	if want := r.expect(ingest.FrameNack); want != 1 {
		t.Fatalf("NACK wants seq %d, want 1", want)
	}
	if n := srv.Metrics().FramesShed.Load(); n != 1 {
		t.Fatalf("FramesShed = %d, want 1", n)
	}
}

func TestBreakerPoisonsRepeatOffender(t *testing.T) {
	srv, addr := startServer(t, ingest.Config{DataDir: t.TempDir(), BreakerNacks: 2})
	r := dialRaw(t, addr, "offender", 2)
	// Two sequence gaps burn the two-strike budget: NACK, then NACK + ERR.
	r.send(ingest.FrameChunk, 5, []byte("gap"))
	if want := r.expect(ingest.FrameNack); want != 1 {
		t.Fatalf("NACK wants seq %d, want 1", want)
	}
	r.send(ingest.FrameChunk, 7, []byte("gap"))
	if msg := r.expectErr(); !strings.Contains(msg, "circuit breaker") {
		t.Fatalf("poison message %q does not mention the breaker", msg)
	}
	if n := srv.Metrics().BreakerTrips.Load(); n != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", n)
	}
	// The id stays poisoned for reconnects until a server restart.
	if msg := dialRawExpectErr(t, addr,
		ingest.AppendHelloSource(nil, ingest.ProtoVersion, 2, "offender", "")); !strings.Contains(msg, "poisoned") {
		t.Fatalf("reconnect rejection %q does not say poisoned", msg)
	}
}

// TestTornStateFallsBackToFreshUpload: a server restart that finds a torn
// ingest.state (a legacy non-atomic write cut short by a crash) restarts
// the session's upload from scratch instead of failing the session.
func TestTornStateFallsBackToFreshUpload(t *testing.T) {
	dataDir := t.TempDir()
	gob := testProgramGob(t)
	stream := buildStream(t, 2, 6)
	func() {
		_, addr := startServer(t, ingest.Config{DataDir: dataDir})
		pushStream(t, client.Options{Addr: addr, SessionID: "torn", MaxChunkBytes: 256}, gob, stream).Close()
	}()
	assertArchived(t, dataDir, "torn", gob, stream)

	// Tear the state file the way an interrupted plain write would.
	statePath := filepath.Join(dataDir, "torn", "ingest.state")
	if err := os.WriteFile(statePath, []byte("jportal-ingest-state\nseq: 1"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, addr := startServer(t, ingest.Config{DataDir: dataDir})
	p := pushStream(t, client.Options{Addr: addr, SessionID: "torn", MaxChunkBytes: 256}, gob, stream)
	defer p.Close()
	if p.ResumeSeq() != 0 {
		t.Fatalf("resumed at seq %d after a torn state, want a fresh upload", p.ResumeSeq())
	}
	if n := srv.Metrics().StateFallbacks.Load(); n != 1 {
		t.Fatalf("StateFallbacks = %d, want 1", n)
	}
	assertArchived(t, dataDir, "torn", gob, stream)
	if _, err := streamfmt.ParseHeader(stream); err != nil {
		t.Fatal(err)
	}
}
