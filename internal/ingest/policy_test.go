package ingest

// White-box tests of the session sequencing rules and the blocking
// backpressure, driven without a writer goroutine so the queue state is
// fully under the test's control.

import (
	"net"
	"testing"
	"time"
)

// fakeConn binds a connWriter to one end of a pipe and collects every frame
// the server sends on a channel.
type fakeConn struct {
	cw     *connWriter
	frames chan frame
	close  func()
}

type frame struct {
	typ byte
	seq uint64
}

func newFakeConn(t *testing.T) *fakeConn {
	t.Helper()
	server, client := net.Pipe()
	fc := &fakeConn{
		cw:     &connWriter{c: server},
		frames: make(chan frame, 16),
		close:  func() { server.Close(); client.Close() },
	}
	go func() {
		for {
			typ, payload, err := ReadFrame(client)
			if err != nil {
				close(fc.frames)
				return
			}
			var seq uint64
			if typ != FrameErr {
				seq, _, _ = ParseSeq(payload)
			}
			fc.frames <- frame{typ: typ, seq: seq}
		}
	}()
	t.Cleanup(fc.close)
	return fc
}

func (fc *fakeConn) expect(t *testing.T, typ byte, seq uint64) {
	t.Helper()
	select {
	case f, ok := <-fc.frames:
		if !ok {
			t.Fatalf("connection closed, wanted frame %#x seq %d", typ, seq)
		}
		if f.typ != typ || f.seq != seq {
			t.Fatalf("got frame %#x seq %d, want %#x seq %d", f.typ, f.seq, typ, seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no frame within 5s, wanted %#x seq %d", typ, seq)
	}
}

func (fc *fakeConn) expectNone(t *testing.T) {
	t.Helper()
	select {
	case f := <-fc.frames:
		t.Fatalf("unexpected frame %#x seq %d", f.typ, f.seq)
	case <-time.After(50 * time.Millisecond):
	}
}

func newTestSession(t *testing.T, cfg Config) (*Server, *session) {
	t.Helper()
	cfg.DataDir = t.TempDir()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.openSession("s", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sess.mu.Lock()
		if sess.f != nil {
			sess.f.Close()
			sess.f = nil
		}
		sess.mu.Unlock()
	})
	return srv, sess
}

func TestSubmitSequencingRules(t *testing.T) {
	srv, sess := newTestSession(t, Config{QueueDepth: 8})
	fc := newFakeConn(t)

	// Pretend seqs 1..5 are archived and 6..7 are queued.
	sess.lastAcked = 5
	sess.nextEnqueue = 8

	// At or below the frontier: idempotent duplicate, re-ACK.
	if !sess.submit(msg{typ: FrameChunk, seq: 3}, fc.cw) {
		t.Fatal("duplicate closed the connection")
	}
	fc.expect(t, FrameAck, 5)
	if got := srv.Metrics().Duplicates.Load(); got != 1 {
		t.Fatalf("Duplicates = %d, want 1", got)
	}

	// Queued but not archived: dropped silently, the ACK is coming.
	if !sess.submit(msg{typ: FrameChunk, seq: 7}, fc.cw) {
		t.Fatal("in-queue duplicate closed the connection")
	}
	fc.expectNone(t)
	if got := srv.Metrics().Duplicates.Load(); got != 2 {
		t.Fatalf("Duplicates = %d, want 2", got)
	}

	// A gap earns a NACK naming the wanted sequence.
	if !sess.submit(msg{typ: FrameChunk, seq: 12}, fc.cw) {
		t.Fatal("gap closed the connection")
	}
	fc.expect(t, FrameNack, 8)
	if got := srv.Metrics().Nacks.Load(); got != 1 {
		t.Fatalf("Nacks = %d, want 1", got)
	}

	// The expected next sequence is accepted and advances the frontier.
	if !sess.submit(msg{typ: FrameChunk, seq: 8, data: []byte{1}}, fc.cw) {
		t.Fatal("in-order frame closed the connection")
	}
	if len(sess.queue) != 1 || sess.nextEnqueue != 9 {
		t.Fatalf("queue=%d nextEnqueue=%d after accept", len(sess.queue), sess.nextEnqueue)
	}
}

// TestSubmitAfterWriterOvertakesRebind: a reconnect resets the gate to the
// durable frontier (seq 2) while seqs 3..5 of the old connection are still
// queued; the writer then archives them. The client, ACKed through 5,
// sends 6 next — which must be accepted, not NACKed as a gap back to 3.
func TestSubmitAfterWriterOvertakesRebind(t *testing.T) {
	_, sess := newTestSession(t, Config{QueueDepth: 8})
	fc := newFakeConn(t)
	sess.lastAcked = 5
	sess.nextEnqueue = 3

	if !sess.submit(msg{typ: FrameChunk, seq: 6, data: []byte{1}}, fc.cw) {
		t.Fatal("in-order frame closed the connection")
	}
	fc.expectNone(t)
	if len(sess.queue) != 1 || sess.nextEnqueue != 7 {
		t.Fatalf("queue=%d nextEnqueue=%d after accept", len(sess.queue), sess.nextEnqueue)
	}
}

func TestPolicyBlockBackpressure(t *testing.T) {
	_, sess := newTestSession(t, Config{QueueDepth: 1})
	fc := newFakeConn(t)

	if !sess.submit(msg{typ: FrameChunk, seq: 1}, fc.cw) {
		t.Fatal("first frame rejected")
	}
	// The queue is full: the next submit must block (the reader goroutine
	// stalls, which is what pushes backpressure into TCP).
	done := make(chan bool, 1)
	go func() { done <- sess.submit(msg{typ: FrameChunk, seq: 2}, fc.cw) }()
	select {
	case <-done:
		t.Fatal("submit returned with a full queue")
	case <-time.After(100 * time.Millisecond):
	}
	// Draining one message unblocks it.
	<-sess.queue
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("unblocked submit closed the connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit still blocked after the queue drained")
	}
}

func TestPolicyBlockForceRelease(t *testing.T) {
	srv, sess := newTestSession(t, Config{QueueDepth: 1})
	fc := newFakeConn(t)

	if !sess.submit(msg{typ: FrameChunk, seq: 1}, fc.cw) {
		t.Fatal("first frame rejected")
	}
	done := make(chan bool, 1)
	go func() { done <- sess.submit(msg{typ: FrameChunk, seq: 2}, fc.cw) }()
	time.Sleep(50 * time.Millisecond)
	// Shutdown's force-close path releases blocked readers: submit reports
	// the connection should close, and the frame is NOT enqueued.
	srv.forceOne.Do(func() { close(srv.force) })
	select {
	case ok := <-done:
		if ok {
			t.Fatal("forced submit did not ask to close the connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit still blocked after force")
	}
	if len(sess.queue) != 1 {
		t.Fatalf("queue holds %d frames after forced release, want 1", len(sess.queue))
	}
}
