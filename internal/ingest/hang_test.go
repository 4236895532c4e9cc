package ingest

// White-box tests for the writer-stall paths: testHookArchive lets a test
// wedge a session's writer goroutine mid-frame, the failure mode a dying
// disk produces, which the external test suite cannot provoke.

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// hangServer starts a server whose writers block inside the archive hook
// until release is closed.
func hangServer(t *testing.T, cfg Config, release chan struct{}) (*Server, string) {
	t.Helper()
	hook := func(sess *session, m msg) {
		if m.typ == FrameChunk {
			<-release
		}
	}
	testHookArchive.Store(&hook)
	t.Cleanup(func() { testHookArchive.Store(nil) })
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// wedgeOneChunk opens a raw connection, handshakes, and feeds one chunk
// frame into the (blocked) writer.
func wedgeOneChunk(t *testing.T, addr, id string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := WriteFrame(c, FrameHello, AppendHelloSource(nil, ProtoVersion, 2, id, "")); err != nil {
		t.Fatal(err)
	}
	typ, _, err := ReadFrame(c)
	if err != nil || typ != FrameHelloAck {
		t.Fatalf("handshake: frame %#x, err %v", typ, err)
	}
	// Payload validity does not matter: the hook blocks before validation.
	if err := WriteFrame(c, FrameChunk, append(AppendSeq(nil, 1), "wedged"...)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShutdownDeadlineWithHungWriter is the regression test for the drain
// fix: a session whose writer never finishes its frame must not block
// Shutdown past the caller's deadline.
func TestShutdownDeadlineWithHungWriter(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, addr := hangServer(t, Config{}, release)
	c := wedgeOneChunk(t, addr, "hung")
	time.Sleep(50 * time.Millisecond) // let the writer dequeue and block
	c.Close()

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err := srv.Shutdown(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Shutdown took %v with a hung writer, want ~300ms", elapsed)
	}
}

// TestWriterStallPoisonsSession: with the writer watchdog enabled, a
// wedged writer is detected, the session is poisoned, and the attached
// client is told with ERR instead of waiting forever for its ACK.
func TestWriterStallPoisonsSession(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, addr := hangServer(t, Config{StallAfter: 150 * time.Millisecond}, release)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	c := wedgeOneChunk(t, addr, "stalled")

	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		typ, payload, err := ReadFrame(c)
		if err != nil {
			t.Fatalf("waiting for ERR: %v", err)
		}
		if typ == FrameErr {
			if got := string(payload); !strings.Contains(got, "stalled") {
				t.Fatalf("ERR %q does not mention the stall", got)
			}
			break
		}
	}
	if n := srv.Metrics().StallsDetected.Load(); n != 1 {
		t.Fatalf("StallsDetected = %d, want 1", n)
	}
	if n := srv.dog.Stalls(); n != 1 {
		t.Fatalf("supervisor stalls = %d, want 1", n)
	}
}
