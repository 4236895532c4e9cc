package ingest_test

// Loopback tests of the ingest server + client pair: every test starts a
// real TCP server and asserts the server-side archive comes out
// byte-identical to the stream the client pushed — including under injected
// disconnects, duplicate delivery, a dropped frame, server restarts and
// concurrent sessions. The streams are synthetic (the server validates
// structure, not run semantics); end-to-end runs against real workloads
// live in the repo root's ingest e2e tests.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jportal"
	"jportal/internal/bytecode"
	"jportal/internal/fault"
	"jportal/internal/ingest"
	"jportal/internal/ingest/client"
	"jportal/internal/iofault"
	"jportal/internal/source"
	"jportal/internal/streamfmt"
	"jportal/internal/vm"
)

func testProgramGob(t *testing.T) []byte {
	t.Helper()
	prog := bytecode.MustAssemble(`
method T.main(0) {
    return
}
entry T.main
`)
	gob, err := jportal.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return gob
}

// buildStream returns a complete, sealed synthetic stream (header
// included) with nchunks trace-chunk records.
func buildStream(t *testing.T, ncores, nchunks int) []byte {
	t.Helper()
	var buf bytes.Buffer
	e, err := streamfmt.NewEncoder(&buf, ncores)
	if err != nil {
		t.Fatal(err)
	}
	e.AddSideband([]vm.SwitchRecord{{TSC: 1, Core: 0, Thread: 1}})
	for i := 0; i < nchunks; i++ {
		items := []source.Item{
			{Packet: source.Packet{Kind: 1, IP: uint64(0x4000 + i), NBits: 5, Bits: uint64(i)}},
			{Packet: source.Packet{Kind: 2, IP: uint64(0x5000 + i)}},
		}
		if err := e.Feed(i%ncores, items); err != nil {
			t.Fatal(err)
		}
		e.Watermark(i%ncores, uint64(i+1)*100)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chunksOf batches whole records into payloads of at most maxBytes, the
// way the client's PushArchive does.
func chunksOf(t *testing.T, records []byte, maxBytes int) [][]byte {
	t.Helper()
	frames, err := client.ChunkFrames(records, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func startServer(t *testing.T, cfg ingest.Config) (*ingest.Server, string) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	return srv, ln.Addr().String()
}

// pushStream uploads programGob + the stream's records through a Pusher and
// completes with FIN. Returns the pusher for stats.
func pushStream(t *testing.T, opts client.Options, programGob, stream []byte) *client.Pusher {
	t.Helper()
	ncores, err := streamfmt.ParseHeader(stream)
	if err != nil {
		t.Fatal(err)
	}
	p, err := client.Dial(context.Background(), opts, ncores)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send(ingest.FrameProgram, programGob); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunksOf(t, stream[streamfmt.HeaderLen:], opts.MaxChunkBytes) {
		if _, err := p.Send(ingest.FrameChunk, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	return p
}

func assertArchived(t *testing.T, dataDir, id string, programGob, stream []byte) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(dataDir, id, jportal.StreamFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stream) {
		t.Fatalf("archived stream diverges: %d bytes vs %d pushed", len(got), len(stream))
	}
	gotGob, err := os.ReadFile(filepath.Join(dataDir, id, jportal.ProgramFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotGob, programGob) {
		t.Fatal("archived program.gob diverges")
	}
	meta, err := os.ReadFile(filepath.Join(dataDir, id, jportal.MetaFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(meta, []byte("layout: chunked")) {
		t.Fatalf("archive.meta is not chunked:\n%s", meta)
	}
}

func TestUploadByteIdentical(t *testing.T) {
	dataDir := t.TempDir()
	srv, addr := startServer(t, ingest.Config{DataDir: dataDir})
	gob := testProgramGob(t)
	stream := buildStream(t, 2, 20)

	p := pushStream(t, client.Options{Addr: addr, SessionID: "up", MaxChunkBytes: 256}, gob, stream)
	defer p.Close()
	assertArchived(t, dataDir, "up", gob, stream)

	state, err := os.ReadFile(filepath.Join(dataDir, "up", "ingest.state"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(state, []byte("sealed: true")) {
		t.Fatalf("state not sealed:\n%s", state)
	}
	m := srv.Metrics()
	if m.SessionsSealed.Load() != 1 || m.SessionsTotal.Load() != 1 {
		t.Fatalf("sealed=%d total=%d", m.SessionsSealed.Load(), m.SessionsTotal.Load())
	}
	if m.BytesIngested.Load() < int64(len(stream)-streamfmt.HeaderLen) {
		t.Fatalf("BytesIngested = %d", m.BytesIngested.Load())
	}
}

// rawSession speaks the frame protocol directly, for tests that need exact
// control over sequence numbers and timing.
type rawSession struct {
	t *testing.T
	c net.Conn
	// resume is the frontier HELLO_ACK reported.
	resume uint64
}

func dialRaw(t *testing.T, addr, id string, ncores int) *rawSession {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := ingest.WriteFrame(c, ingest.FrameHello,
			ingest.AppendHelloSource(nil, ingest.ProtoVersion, ncores, id, "")); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := ingest.ReadFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		if typ == ingest.FrameErr {
			c.Close()
			// The server may not have noticed a just-closed predecessor yet.
			if strings.Contains(string(payload), "active connection") && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			t.Fatalf("server rejected HELLO: %s", payload)
		}
		_, resume, err := ingest.ParseHelloAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return &rawSession{t: t, c: c, resume: resume}
	}
}

// dialRawExpectErr performs a handshake that must be rejected.
func dialRawExpectErr(t *testing.T, addr string, hello []byte) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := ingest.WriteFrame(c, ingest.FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ingest.ReadFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if typ != ingest.FrameErr {
		t.Fatalf("got frame %#x, want ERR", typ)
	}
	return string(payload)
}

func (r *rawSession) send(typ byte, seq uint64, data []byte) {
	r.t.Helper()
	payload := append(ingest.AppendSeq(nil, seq), data...)
	if err := ingest.WriteFrame(r.c, typ, payload); err != nil {
		r.t.Fatal(err)
	}
}

// expect reads frames until one of type typ arrives (cumulative ACKs may
// repeat) and returns its sequence payload.
func (r *rawSession) expect(typ byte) uint64 {
	r.t.Helper()
	for {
		r.c.SetReadDeadline(time.Now().Add(10 * time.Second))
		got, payload, err := ingest.ReadFrame(r.c)
		if err != nil {
			r.t.Fatalf("waiting for frame %#x: %v", typ, err)
		}
		if got == ingest.FrameErr {
			r.t.Fatalf("waiting for frame %#x, got ERR: %s", typ, payload)
		}
		if got != typ {
			continue
		}
		seq, _, err := ingest.ParseSeq(payload)
		if err != nil {
			r.t.Fatal(err)
		}
		return seq
	}
}

func (r *rawSession) expectErr() string {
	r.t.Helper()
	for {
		r.c.SetReadDeadline(time.Now().Add(10 * time.Second))
		got, payload, err := ingest.ReadFrame(r.c)
		if err != nil {
			r.t.Fatalf("waiting for ERR: %v", err)
		}
		if got == ingest.FrameErr {
			return string(payload)
		}
	}
}

// waitAck reads until the cumulative ACK reaches seq.
func (r *rawSession) waitAck(seq uint64) {
	r.t.Helper()
	for {
		if got := r.expect(ingest.FrameAck); got >= seq {
			return
		}
	}
}

func TestDuplicateAfterReconnectIsIdempotent(t *testing.T) {
	dataDir := t.TempDir()
	srv, addr := startServer(t, ingest.Config{DataDir: dataDir})
	gob := testProgramGob(t)
	stream := buildStream(t, 2, 6)
	chunks := chunksOf(t, stream[streamfmt.HeaderLen:], 128)
	if len(chunks) < 2 {
		t.Fatalf("stream too small to split: %d chunks", len(chunks))
	}

	// First connection: program + the first chunk, then vanish.
	r1 := dialRaw(t, addr, "dup", 2)
	if r1.resume != 0 {
		t.Fatalf("fresh session resumes at %d", r1.resume)
	}
	r1.send(ingest.FrameProgram, 1, gob)
	r1.send(ingest.FrameChunk, 2, chunks[0])
	r1.waitAck(2)
	r1.c.Close()

	// Reconnect: the frontier is 2; deliver chunk seq 2 AGAIN (the client
	// lost the ACK), which must be dropped and re-ACKed, not re-appended.
	r2 := dialRaw(t, addr, "dup", 2)
	if r2.resume != 2 {
		t.Fatalf("resume = %d, want 2", r2.resume)
	}
	r2.send(ingest.FrameChunk, 2, chunks[0])
	r2.waitAck(2)
	if srv.Metrics().Duplicates.Load() == 0 {
		t.Fatal("duplicate not counted")
	}
	// Now the rest, in order, and FIN.
	seq := uint64(3)
	for _, c := range chunks[1:] {
		r2.send(ingest.FrameChunk, seq, c)
		seq++
	}
	last := seq - 1
	r2.waitAck(last)
	r2.send(ingest.FrameFin, last, nil)
	if got := r2.expect(ingest.FrameFinAck); got != last {
		t.Fatalf("FIN_ACK %d, want %d", got, last)
	}
	assertArchived(t, dataDir, "dup", gob, stream)
	if srv.Metrics().SessionsResumed.Load() != 1 {
		t.Fatalf("SessionsResumed = %d", srv.Metrics().SessionsResumed.Load())
	}
}

func TestSequenceGapEarnsNack(t *testing.T) {
	_, addr := startServer(t, ingest.Config{DataDir: t.TempDir()})
	r := dialRaw(t, addr, "gap", 2)
	r.send(ingest.FrameProgram, 1, testProgramGob(t))
	r.waitAck(1)
	r.send(ingest.FrameChunk, 5, []byte{streamfmt.TagWatermark, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	if want := r.expect(ingest.FrameNack); want != 2 {
		t.Fatalf("NACK wants %d, want 2", want)
	}
}

// TestClientResendsAfterGapNack drops one CHUNK frame between a real
// client and server: the server NACKs the gap, and the client must resend
// from the named sequence so the archive still comes out byte-identical.
func TestClientResendsAfterGapNack(t *testing.T) {
	dataDir := t.TempDir()
	_, srvAddr := startServer(t, ingest.Config{DataDir: dataDir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		dropped := false
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", srvAddr)
			if err != nil {
				c.Close()
				return
			}
			go func() { io.Copy(c, up); c.Close() }()
			for {
				typ, payload, err := ingest.ReadFrame(c)
				if err != nil {
					up.Close()
					break
				}
				if seq, _, _ := ingest.ParseSeq(payload); typ == ingest.FrameChunk && seq == 3 && !dropped {
					dropped = true
					continue
				}
				if ingest.WriteFrame(up, typ, payload) != nil {
					c.Close()
					break
				}
			}
		}
	}()

	gob := testProgramGob(t)
	stream := buildStream(t, 2, 20)
	opts := client.Options{
		Addr: ln.Addr().String(), SessionID: "gap", MaxChunkBytes: 128,
		Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	}
	p := pushStream(t, opts, gob, stream)
	defer p.Close()
	if p.Nacks() == 0 {
		t.Fatal("the dropped frame earned no NACK")
	}
	assertArchived(t, dataDir, "gap", gob, stream)
}

func TestFinBeforeSealIsAnError(t *testing.T) {
	_, addr := startServer(t, ingest.Config{DataDir: t.TempDir()})
	stream := buildStream(t, 2, 2)
	records := stream[streamfmt.HeaderLen:]
	unsealed := records[:len(records)-5] // drop the seal record

	r := dialRaw(t, addr, "noseal", 2)
	r.send(ingest.FrameProgram, 1, testProgramGob(t))
	r.send(ingest.FrameChunk, 2, unsealed)
	r.waitAck(2)
	r.send(ingest.FrameFin, 2, nil)
	if msg := r.expectErr(); msg == "" {
		t.Fatal("empty ERR message")
	}
}

func TestCorruptChunkPoisonsSession(t *testing.T) {
	dataDir := t.TempDir()
	srv, addr := startServer(t, ingest.Config{DataDir: dataDir})
	stream := buildStream(t, 2, 2)
	records := stream[streamfmt.HeaderLen:]

	// Flip a payload byte: the seal CRC can no longer match, so the session
	// must be poisoned instead of archiving a silently damaged stream.
	bad := append([]byte(nil), records...)
	bad[len(bad)-12] ^= 0xFF

	r := dialRaw(t, addr, "corrupt", 2)
	r.send(ingest.FrameProgram, 1, testProgramGob(t))
	r.send(ingest.FrameChunk, 2, bad)
	if msg := r.expectErr(); msg == "" {
		t.Fatal("empty ERR message")
	}
	if srv.Metrics().Errors.Load() == 0 {
		t.Fatal("error not counted")
	}
	// The poisoned session refuses a new connection until a restart.
	if msg := dialRawExpectErr(t, addr,
		ingest.AppendHelloSource(nil, ingest.ProtoVersion, 2, "corrupt", "")); msg == "" {
		t.Fatal("poisoned session accepted a reconnect")
	}
}

func TestHelloRejections(t *testing.T) {
	_, addr := startServer(t, ingest.Config{DataDir: t.TempDir()})
	cases := []struct {
		name  string
		hello []byte
	}{
		{"bad version", ingest.AppendHelloSource(nil, 99, 2, "ok", "")},
		{"bad id", ingest.AppendHelloSource(nil, ingest.ProtoVersion, 2, "../evil", "")},
		{"zero cores", ingest.AppendHelloSource(nil, ingest.ProtoVersion, 0, "ok", "")},
	}
	for _, tc := range cases {
		if msg := dialRawExpectErr(t, addr, tc.hello); msg == "" {
			t.Errorf("%s: empty ERR", tc.name)
		}
	}
	// A second HELLO with a different core count than the session was
	// opened with must be rejected too.
	r := dialRaw(t, addr, "cores", 2)
	_ = r
	if msg := dialRawExpectErr(t, addr,
		ingest.AppendHelloSource(nil, ingest.ProtoVersion, 3, "cores", "")); msg == "" {
		t.Error("core-count mismatch accepted")
	}
}

func TestMidChunkDisconnectThenResume(t *testing.T) {
	dataDir := t.TempDir()
	_, addr := startServer(t, ingest.Config{DataDir: dataDir})
	gob := testProgramGob(t)
	stream := buildStream(t, 2, 10)

	// A connection that dies halfway through writing a CHUNK frame: the
	// server must discard the torn frame and keep the session resumable.
	r := dialRaw(t, addr, "torn", 2)
	r.send(ingest.FrameProgram, 1, gob)
	r.waitAck(1)
	frame := append([]byte{ingest.FrameChunk, 0, 0, 0, 0}, ingest.AppendSeq(nil, 2)...)
	frame = append(frame, stream[streamfmt.HeaderLen:]...)
	// Patch the length, then send only half the frame and hang up.
	binary.LittleEndian.PutUint32(frame[1:5], uint32(len(frame)-5))
	if _, err := r.c.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	r.c.Close()

	// Give the server a moment to notice the dead reader and detach.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, err := client.Dial(context.Background(),
			client.Options{Addr: addr, SessionID: "torn", MaxChunkBytes: 256}, 2)
		if err == nil {
			if p.ResumeSeq() != 1 {
				t.Fatalf("resume = %d, want 1 (torn frame must not count)", p.ResumeSeq())
			}
			if _, err := p.Send(ingest.FrameProgram, gob); err != nil {
				t.Fatal(err)
			}
			for _, c := range chunksOf(t, stream[streamfmt.HeaderLen:], 256) {
				if _, err := p.Send(ingest.FrameChunk, c); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Finish(); err != nil {
				t.Fatal(err)
			}
			p.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not re-attach: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	assertArchived(t, dataDir, "torn", gob, stream)
}

// limitConn injects a connection failure after a byte budget, cutting the
// stream mid-frame like a real network partition would.
type limitConn struct {
	net.Conn
	remaining int
}

func (c *limitConn) Write(b []byte) (int, error) {
	if c.remaining <= 0 {
		c.Conn.Close()
		return 0, errors.New("injected connection failure")
	}
	if len(b) > c.remaining {
		n, _ := c.Conn.Write(b[:c.remaining])
		c.remaining = 0
		c.Conn.Close()
		return n, errors.New("injected connection failure")
	}
	c.remaining -= len(b)
	return c.Conn.Write(b)
}

func TestClientSurvivesInjectedDisconnects(t *testing.T) {
	dataDir := t.TempDir()
	_, addr := startServer(t, ingest.Config{DataDir: dataDir})
	gob := testProgramGob(t)
	stream := buildStream(t, 2, 30)

	// The first two connections die after a few KB; later ones are clean.
	var dials atomic.Int32
	opts := client.Options{
		Addr: addr, SessionID: "flaky", MaxChunkBytes: 256,
		Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		Dial: func(ctx context.Context, a string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", a)
			if err != nil {
				return nil, err
			}
			if n := dials.Add(1); n <= 2 {
				return &limitConn{Conn: c, remaining: 600 * int(n)}, nil
			}
			return c, nil
		},
	}
	p := pushStream(t, opts, gob, stream)
	defer p.Close()
	if p.Reconnects() == 0 {
		t.Fatal("no reconnects despite injected failures")
	}
	assertArchived(t, dataDir, "flaky", gob, stream)
}

func TestServerRestartResumesFromState(t *testing.T) {
	dataDir := t.TempDir()
	gob := testProgramGob(t)
	stream := buildStream(t, 2, 12)
	chunks := chunksOf(t, stream[streamfmt.HeaderLen:], 200)
	if len(chunks) < 4 {
		t.Fatalf("stream too small: %d chunks", len(chunks))
	}
	half := len(chunks) / 2

	// First server lifetime: program + half the chunks, no FIN.
	srv1, addr1 := startServer(t, ingest.Config{DataDir: dataDir})
	p1, err := client.Dial(context.Background(),
		client.Options{Addr: addr1, SessionID: "restart", MaxChunkBytes: 200}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Send(ingest.FrameProgram, gob); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks[:half] {
		if _, err := p1.Send(ingest.FrameChunk, c); err != nil {
			t.Fatal(err)
		}
	}
	sent := uint64(1 + half)
	for deadline := time.Now().Add(5 * time.Second); p1.Acked() < sent; {
		if time.Now().After(deadline) {
			t.Fatalf("acked %d/%d before restart", p1.Acked(), sent)
		}
		time.Sleep(5 * time.Millisecond)
	}
	p1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()

	// Second lifetime over the same data dir: the state file brings the
	// session back at the acknowledged frontier; re-pushing everything
	// skips the archived prefix and completes the upload.
	_, addr2 := startServer(t, ingest.Config{DataDir: dataDir})
	p2, err := client.Dial(context.Background(),
		client.Options{Addr: addr2, SessionID: "restart", MaxChunkBytes: 200}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.ResumeSeq() != sent {
		t.Fatalf("resume = %d, want %d", p2.ResumeSeq(), sent)
	}
	if _, err := p2.Send(ingest.FrameProgram, gob); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if _, err := p2.Send(ingest.FrameChunk, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := p2.Finish(); err != nil {
		t.Fatal(err)
	}
	p2.Close()
	assertArchived(t, dataDir, "restart", gob, stream)
}

func TestConcurrentSessions(t *testing.T) {
	dataDir := t.TempDir()
	srv, addr := startServer(t, ingest.Config{DataDir: dataDir})
	gob := testProgramGob(t)

	const sessions = 4
	streams := make([][]byte, sessions)
	for i := range streams {
		streams[i] = buildStream(t, 2, 10+5*i)
	}
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				opts := client.Options{
					Addr: addr, SessionID: fmt.Sprintf("agent-%d", i), MaxChunkBytes: 256,
				}
				p, err := client.Dial(context.Background(), opts, 2)
				if err != nil {
					return err
				}
				defer p.Close()
				if _, err := p.Send(ingest.FrameProgram, gob); err != nil {
					return err
				}
				for _, c := range chunksOf(t, streams[i][streamfmt.HeaderLen:], 256) {
					if _, err := p.Send(ingest.FrameChunk, c); err != nil {
						return err
					}
				}
				return p.Finish()
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	for i := 0; i < sessions; i++ {
		assertArchived(t, dataDir, fmt.Sprintf("agent-%d", i), gob, streams[i])
	}
	m := srv.Metrics()
	if m.SessionsTotal.Load() != sessions || m.SessionsSealed.Load() != sessions {
		t.Fatalf("total=%d sealed=%d, want %d", m.SessionsTotal.Load(), m.SessionsSealed.Load(), sessions)
	}
}

func TestShutdownDrainsAcceptedFrames(t *testing.T) {
	dataDir := t.TempDir()
	srv, addr := startServer(t, ingest.Config{DataDir: dataDir})
	gob := testProgramGob(t)
	stream := buildStream(t, 2, 8)
	chunks := chunksOf(t, stream[streamfmt.HeaderLen:], 200)

	p, err := client.Dial(context.Background(),
		client.Options{Addr: addr, SessionID: "drainee", MaxChunkBytes: 200}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Send(ingest.FrameProgram, gob); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if _, err := p.Send(ingest.FrameChunk, c); err != nil {
			t.Fatal(err)
		}
	}
	sent := uint64(1 + len(chunks))
	for deadline := time.Now().Add(5 * time.Second); p.Acked() < sent; {
		if time.Now().After(deadline) {
			t.Fatalf("acked %d/%d", p.Acked(), sent)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drain with an attached (idle) connection: the budget expires, the
	// connection is force-closed, but everything acknowledged is on disk.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded (client was attached)", err)
	}
	got, err := os.ReadFile(filepath.Join(dataDir, "drainee", jportal.StreamFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stream) {
		t.Fatalf("drained archive %d bytes, pushed %d", len(got), len(stream))
	}
	if srv.Metrics().SessionsDrained.Load() != 1 {
		t.Fatalf("SessionsDrained = %d", srv.Metrics().SessionsDrained.Load())
	}
}

func TestObservabilityEndpoints(t *testing.T) {
	dataDir := t.TempDir()
	srv, addr := startServer(t, ingest.Config{DataDir: dataDir})
	web := httptest.NewServer(srv.Observability())
	defer web.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := web.Client().Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		return resp.StatusCode, body.String()
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}

	gob := testProgramGob(t)
	stream := buildStream(t, 2, 5)
	p := pushStream(t, client.Options{Addr: addr, SessionID: "obs", MaxChunkBytes: 256}, gob, stream)
	p.Close()

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	var m map[string]int64
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"sessions_open", "sessions_total", "sessions_sealed",
		"chunks_ingested", "bytes_ingested", "queue_depth", "nacks", "duplicates", "errors"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if m["sessions_total"] != 1 || m["sessions_sealed"] != 1 || m["bytes_ingested"] == 0 {
		t.Fatalf("metrics: %v", m)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if code, body := get("/healthz"); code != 503 || !bytes.Contains([]byte(body), []byte("draining")) {
		t.Fatalf("healthz during drain = %d %q", code, body)
	}
}

// TestPoisonedSessionDoesNotAffectSiblings interleaves a clean session with
// one that uploads a corrupt chunk: the bad frame earns a NACK and poisons
// exactly its own session, while the sibling seals a byte-identical archive
// on the same server.
func TestPoisonedSessionDoesNotAffectSiblings(t *testing.T) {
	dataDir := t.TempDir()
	srv, addr := startServer(t, ingest.Config{DataDir: dataDir})
	gob := testProgramGob(t)
	stream := buildStream(t, 2, 4)
	records := stream[streamfmt.HeaderLen:]

	bad := append([]byte(nil), records...)
	bad[len(bad)-12] ^= 0xFF // break the seal CRC

	clean := dialRaw(t, addr, "clean", 2)
	poisoned := dialRaw(t, addr, "poisoned", 2)

	// Interleave: the clean session is mid-upload when the sibling poisons.
	clean.send(ingest.FrameProgram, 1, gob)
	clean.waitAck(1)
	poisoned.send(ingest.FrameProgram, 1, gob)
	poisoned.send(ingest.FrameChunk, 2, bad)
	if got := poisoned.expect(ingest.FrameNack); got != 2 {
		t.Fatalf("NACK for rejected frame = seq %d, want 2", got)
	}
	if msg := poisoned.expectErr(); !strings.Contains(msg, "corrupt") {
		t.Fatalf("poisoned session ERR = %q, want a corrupt-stream cause", msg)
	}

	// The sibling finishes untouched and its archive is byte-identical.
	clean.send(ingest.FrameChunk, 2, records)
	clean.waitAck(2)
	clean.send(ingest.FrameFin, 2, nil)
	if got := clean.expect(ingest.FrameFinAck); got != 2 {
		t.Fatalf("clean FIN_ACK seq = %d", got)
	}
	assertArchived(t, dataDir, "clean", gob, stream)

	m := srv.Metrics()
	if q := m.SessionsQuarantined.Load(); q != 1 {
		t.Fatalf("SessionsQuarantined = %d, want 1", q)
	}
	if c := m.CorruptRecords.Load(); c != 1 {
		t.Fatalf("CorruptRecords = %d, want 1", c)
	}
	// The poisoned id stays quarantined; the clean id sealed normally.
	if msg := dialRawExpectErr(t, addr,
		ingest.AppendHelloSource(nil, ingest.ProtoVersion, 2, "poisoned", "")); msg == "" {
		t.Fatal("poisoned session accepted a reconnect")
	}
	if m.SessionsSealed.Load() != 1 {
		t.Fatalf("SessionsSealed = %d, want 1", m.SessionsSealed.Load())
	}
}

// TestTornChunkQuarantinesAsTorn uploads a chunk that ends mid-record: the
// session is quarantined under the torn-record class, not the corrupt one.
func TestTornChunkQuarantinesAsTorn(t *testing.T) {
	srv, addr := startServer(t, ingest.Config{DataDir: t.TempDir()})
	stream := buildStream(t, 2, 2)
	records := stream[streamfmt.HeaderLen:]

	r := dialRaw(t, addr, "torn", 2)
	r.send(ingest.FrameProgram, 1, testProgramGob(t))
	r.send(ingest.FrameChunk, 2, records[:len(records)-3])
	if got := r.expect(ingest.FrameNack); got != 2 {
		t.Fatalf("NACK seq = %d, want 2", got)
	}
	if msg := r.expectErr(); msg == "" {
		t.Fatal("empty ERR")
	}
	if n := srv.Metrics().TornRecords.Load(); n != 1 {
		t.Fatalf("TornRecords = %d, want 1", n)
	}
	if n := srv.Metrics().CorruptRecords.Load(); n != 0 {
		t.Fatalf("CorruptRecords = %d, want 0", n)
	}
}

// TestMetricsExposeFaultCounters asserts the /metrics sidecar pre-declares
// the whole fault vocabulary — every injector class and quarantine reason —
// plus the ingest quarantine counters, before any fault has occurred.
func TestMetricsExposeFaultCounters(t *testing.T) {
	srv, _ := startServer(t, ingest.Config{DataDir: t.TempDir()})
	web := httptest.NewServer(srv.Observability())
	defer web.Close()

	resp, err := web.Client().Get(web.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	var m map[string]int64
	if err := json.Unmarshal(body.Bytes(), &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body.String())
	}
	for _, c := range fault.Classes() {
		if _, ok := m[fault.InjectCounterName(c)]; !ok {
			t.Errorf("metrics missing %q", fault.InjectCounterName(c))
		}
	}
	for _, r := range fault.Reasons() {
		if _, ok := m[fault.QuarantineCounterName(r)]; !ok {
			t.Errorf("metrics missing %q", fault.QuarantineCounterName(r))
		}
	}
	for _, c := range iofault.Classes() {
		if _, ok := m[c.InjectCounterName()]; !ok {
			t.Errorf("metrics missing %q", c.InjectCounterName())
		}
	}
	for _, key := range []string{
		"sessions_quarantined", "records_corrupt", "records_torn",
		// Robustness-layer counters and gauges (DESIGN.md §11): pre-declared
		// so a scraper can alert on them before the first incident.
		"busy_rejections", "frames_shed", "breaker_trips", "writer_stalls",
		"state_fallbacks", "queued_bytes", "watchdog_stalls", "checkpoints_written",
		// Fleet counters (DESIGN.md §14): redirects answered on behalf of
		// another node and sessions resumed from durable state after a
		// restart or an ownership handoff.
		"redirects_sent", "sessions_restored",
		// Control-plane resilience counters (DESIGN.md §15): injected
		// network faults and clients that ran out of retry budget.
		"netfault_injected_total", "client_retry_budget_exhausted",
		// Storage-durability counters (DESIGN.md §16): injected disk
		// faults, the graceful-degradation write path, and the scrubber
		// and retention outcomes.
		"iofault_injected_total", "storage_sheds", "enospc_sheds",
		"state_persist_errors", "disk_full_rejections",
		"scrub_sessions_scanned", "scrub_bytes_verified",
		"scrub_torn_tails_repaired", "scrub_sessions_refetched",
		"scrub_sessions_quarantined", "scrub_sessions_reset",
		"retention_sessions_deleted", "retention_bytes_reclaimed",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
}

// staticRouter routes listed sessions to a fixed owner address and
// everything else locally — a stand-in for the fleet hash ring.
type staticRouter struct{ owner map[string]string }

func (r staticRouter) Route(id string) (string, bool) {
	if addr, ok := r.owner[id]; ok {
		return addr, false
	}
	return "", true
}

// TestRouterVersionGate pins the handshake's version gate on a routed
// server: a ProtoVersion client whose session lives elsewhere gets a
// REDIRECT; a HELLO of any other version (1, 2 or 4) gets a typed
// "protocol-version" ERR before routing sees it (a clean verdict, not a
// hang or a misparsed frame); and sessions the router maps locally attach
// normally.
func TestRouterVersionGate(t *testing.T) {
	srv, addr := startServer(t, ingest.Config{
		DataDir: t.TempDir(),
		Router:  staticRouter{owner: map[string]string{"elsewhere": "10.255.0.9:7"}},
	})

	// REDIRECT carrying the owner's address.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := ingest.WriteFrame(c, ingest.FrameHello,
		ingest.AppendHelloSource(nil, ingest.ProtoVersion, 2, "elsewhere", "")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ingest.ReadFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if typ != ingest.FrameRedirect {
		t.Fatalf("routed HELLO: got frame %#x, want REDIRECT", typ)
	}
	owner, err := ingest.ParseRedirect(payload)
	if err != nil {
		t.Fatal(err)
	}
	if owner != "10.255.0.9:7" {
		t.Fatalf("REDIRECT to %q", owner)
	}

	// Any other version: typed ERR, never a frame the client might misparse.
	for _, version := range []uint32{1, 2, 4} {
		msg := dialRawExpectErr(t, addr,
			ingest.AppendHelloSource(nil, version, 2, "elsewhere", ""))
		category, _ := ingest.SplitErr([]byte(msg))
		if category != ingest.ErrCategoryProtocol {
			t.Errorf("v%d HELLO: ERR %q lacks the %s category",
				version, msg, ingest.ErrCategoryProtocol)
		}
	}

	// A session the router keeps local attaches normally.
	r := dialRaw(t, addr, "local", 2)
	if r.resume != 0 {
		t.Fatalf("fresh local session resumed at %d", r.resume)
	}

	if got := srv.Metrics().RedirectsSent.Load(); got != 1 {
		t.Fatalf("RedirectsSent = %d, want 1", got)
	}
}

// TestClientFollowsRedirect runs two servers; the first routes the session
// to the second. The client dials the first, transparently follows the
// REDIRECT, and the archive materialises on the owner — byte-identical.
func TestClientFollowsRedirect(t *testing.T) {
	frontDir, ownerDir := t.TempDir(), t.TempDir()
	ownerSrv, ownerAddr := startServer(t, ingest.Config{DataDir: ownerDir})
	front, frontAddr := startServer(t, ingest.Config{DataDir: frontDir})
	front.SetRouter(staticRouter{owner: map[string]string{"moved": ownerAddr}})

	gob := testProgramGob(t)
	stream := buildStream(t, 2, 12)
	p := pushStream(t, client.Options{Addr: frontAddr, SessionID: "moved", MaxChunkBytes: 256}, gob, stream)
	defer p.Close()

	if p.Redirects() != 1 {
		t.Fatalf("Redirects = %d, want 1", p.Redirects())
	}
	assertArchived(t, ownerDir, "moved", gob, stream)
	if _, err := os.Stat(filepath.Join(frontDir, "moved")); !os.IsNotExist(err) {
		t.Fatalf("session dir materialised on the redirecting node (err=%v)", err)
	}
	if n := ownerSrv.Metrics().SessionsSealed.Load(); n != 1 {
		t.Fatalf("owner sealed %d sessions, want 1", n)
	}
}

// settledGoroutines waits up to two seconds for the goroutine count to fall
// to want, and returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestPusherLeavesNoGoroutines: uploads under a Background context leave no
// goroutine behind once the server is gone — whether the pusher was closed
// or only finished.
func TestPusherLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := ingest.NewServer(ingest.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	gob := testProgramGob(t)
	stream := buildStream(t, 2, 20)
	opts := client.Options{Addr: ln.Addr().String(), MaxChunkBytes: 256}

	opts.SessionID = "closed"
	pushStream(t, opts, gob, stream).Close()
	opts.SessionID = "finished"
	pushStream(t, opts, gob, stream)

	// The finished pusher still holds its connection open, so the drain
	// runs to its deadline and then force-closes it.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	srv.Shutdown(ctx)
	<-done
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines left behind after two uploads", n-before)
	}
}
