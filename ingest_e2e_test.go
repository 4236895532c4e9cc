package jportal_test

// End-to-end tests of the networked ingest path against real workload
// runs: a chunked archive collected locally, pushed over loopback TCP,
// must land on the server byte-identical — under clean conditions,
// injected disconnects, concurrent sessions, and when streamed live by a
// running collector instead of replayed from disk.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jportal"
	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/ingest"
	"jportal/internal/ingest/client"
	"jportal/internal/meta"
	"jportal/internal/streamfmt"
	"jportal/internal/workload"
)

// collectRcfg is the shared run configuration: small buffer so runs lose
// data (covering the recovery path), no oracle, chunked export.
func collectRcfg() jportal.RunConfig {
	rcfg := jportal.DefaultRunConfig()
	rcfg.CollectOracle = false
	rcfg.PT.BufBytes = 16 << 10
	rcfg.SinkChunkItems = 64
	return rcfg
}

// collectArchive runs the subject and seals an Intel PT archive at dir.
func collectArchive(t *testing.T, subject string, dir string) {
	t.Helper()
	collectArchiveSource(t, subject, dir, "")
}

func startIngestServer(t *testing.T, cfg ingest.Config) (*ingest.Server, string) {
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

// assertSameArchive compares the server-side session archive with the
// locally collected one, byte for byte (header, program and stream), and
// proves the copy is analyzable.
func assertSameArchive(t *testing.T, localDir, dataDir, id string) {
	t.Helper()
	serverDir := filepath.Join(dataDir, id)
	if err := jportal.SameArchive(localDir, serverDir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := jportal.AnalyzeStreamArchive(serverDir, core.DefaultPipelineConfig(), false, 0); err != nil {
		t.Fatalf("server-side archive not analyzable: %v", err)
	}
}

func TestIngestPushEndToEnd(t *testing.T) {
	localDir := filepath.Join(t.TempDir(), "local")
	collectArchive(t, "fop", localDir)
	dataDir := t.TempDir()
	srv, addr := startIngestServer(t, ingest.Config{DataDir: dataDir})

	st, err := client.PushArchive(context.Background(),
		client.Options{Addr: addr, SessionID: "fop-agent"}, localDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames < 2 || st.Bytes == 0 {
		t.Fatalf("push stats: %+v", st)
	}
	assertSameArchive(t, localDir, dataDir, "fop-agent")
	if srv.Metrics().SessionsSealed.Load() != 1 {
		t.Fatalf("SessionsSealed = %d", srv.Metrics().SessionsSealed.Load())
	}

	// A second push of the same archive is a pure resume: nothing
	// retransmits, the archive stays intact.
	st2, err := client.PushArchive(context.Background(),
		client.Options{Addr: addr, SessionID: "fop-agent"}, localDir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ResumeSeq == 0 {
		t.Fatal("re-push did not resume")
	}
	assertSameArchive(t, localDir, dataDir, "fop-agent")
}

func TestIngestPushRefusesUnsealedArchive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "unsealed")
	s := workload.MustLoad("fop", 0.3)
	_, err := jportal.RunWithSink(s.Program, s.Threads, collectRcfg(),
		func(p *bytecode.Program, snap *meta.Snapshot, ncores int) (jportal.TraceSink, error) {
			return jportal.CreateStreamArchive(dir, p, snap, ncores)
		})
	if err != nil {
		t.Fatal(err)
	}
	// No Seal: pushing must fail client-side before touching the network.
	if _, err := client.PushArchive(context.Background(),
		client.Options{Addr: "127.0.0.1:1", SessionID: "x"}, dir); err == nil {
		t.Fatal("pushed an unsealed archive")
	}
}

// TestIngestPushRefusesDamagedArchive: an archive whose seal CRC no longer
// matches its records (one payload byte of a chunk flipped, framing
// intact) must be refused client-side before anything is sent — never
// relayed for the server to poison and quarantine the session.
func TestIngestPushRefusesDamagedArchive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "damaged")
	collectArchive(t, "fop", dir)
	path := filepath.Join(dir, jportal.StreamFileName)
	stream, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for off := streamfmt.HeaderLen; off < len(stream) && !flipped; {
		n, err := streamfmt.Scan(stream[off:])
		if err != nil {
			t.Fatal(err)
		}
		if stream[off] == streamfmt.TagChunk && n > 9 {
			stream[off+9+(n-9)/2] ^= 0x01
			flipped = true
		}
		off += n
	}
	if !flipped {
		t.Fatal("archive has no chunk record with a payload")
	}
	if err := os.WriteFile(path, stream, 0o644); err != nil {
		t.Fatal(err)
	}

	dataDir := t.TempDir()
	srv, addr := startIngestServer(t, ingest.Config{DataDir: dataDir})
	_, err = client.PushArchive(context.Background(), client.Options{Addr: addr, SessionID: "dmg"}, dir)
	if !errors.Is(err, streamfmt.ErrCorrupt) {
		t.Fatalf("push of a damaged archive: err = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "dmg")); !os.IsNotExist(err) {
		t.Fatalf("server created a session dir for the refused push (stat err = %v)", err)
	}
	if q := srv.Metrics().SessionsQuarantined.Load(); q != 0 {
		t.Fatalf("SessionsQuarantined = %d, want 0", q)
	}
}

// cutConn fails writes after a byte budget, closing the connection
// mid-frame like a network partition.
type cutConn struct {
	net.Conn
	remaining int
}

func (c *cutConn) Write(b []byte) (int, error) {
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

func TestIngestPushSurvivesDisconnects(t *testing.T) {
	localDir := filepath.Join(t.TempDir(), "local")
	collectArchive(t, "fop", localDir)
	dataDir := t.TempDir()
	_, addr := startIngestServer(t, ingest.Config{DataDir: dataDir})

	// The first three connections each die after a few KB.
	var dials atomic.Int32
	opts := client.Options{
		Addr: addr, SessionID: "flaky", MaxChunkBytes: 4 << 10,
		Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		Dial: func(ctx context.Context, a string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", a)
			if err != nil {
				return nil, err
			}
			if n := dials.Add(1); n <= 3 {
				return &cutConn{Conn: c, remaining: 8 << 10}, nil
			}
			return c, nil
		},
	}
	st, err := client.PushArchive(context.Background(), opts, localDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reconnects == 0 {
		t.Fatal("no reconnects despite injected failures")
	}
	assertSameArchive(t, localDir, dataDir, "flaky")
}

func TestIngestConcurrentPushes(t *testing.T) {
	localDir := filepath.Join(t.TempDir(), "local")
	collectArchive(t, "fop", localDir)
	dataDir := t.TempDir()
	srv, addr := startIngestServer(t, ingest.Config{DataDir: dataDir})

	const sessions = 4
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.PushArchive(context.Background(), client.Options{
				Addr: addr, SessionID: fmt.Sprintf("agent-%d", i), MaxChunkBytes: 8 << 10,
			}, localDir)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	for i := 0; i < sessions; i++ {
		assertSameArchive(t, localDir, dataDir, fmt.Sprintf("agent-%d", i))
	}
	if got := srv.Metrics().SessionsSealed.Load(); got != sessions {
		t.Fatalf("SessionsSealed = %d, want %d", got, sessions)
	}
}

// TestIngestLivePushMatchesLocalArchive runs the same deterministic
// subject twice — once into a local chunked archive, once streamed live to
// an ingest server through RunWithSink — and requires the two archives to
// be byte-identical: the live sink frames records with the same encoder as
// the local writer.
func TestIngestLivePushMatchesLocalArchive(t *testing.T) {
	for _, src := range []string{"intel-pt", "riscv-etrace"} {
		t.Run(src, func(t *testing.T) {
			localDir := filepath.Join(t.TempDir(), "local")
			collectArchiveSource(t, "fop", localDir, src)
			dataDir := t.TempDir()
			_, addr := startIngestServer(t, ingest.Config{DataDir: dataDir})

			s := workload.MustLoad("fop", 0.3)
			rcfg := collectRcfg()
			rcfg.Source = src
			var sink *client.LiveSink
			_, err := jportal.RunWithSink(s.Program, s.Threads, rcfg,
				func(p *bytecode.Program, snap *meta.Snapshot, ncores int) (jportal.TraceSink, error) {
					var err error
					sink, err = client.NewLiveSink(context.Background(),
						client.Options{Addr: addr, SessionID: "live", SourceID: src}, p, snap, ncores)
					return sink, err
				})
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Seal(); err != nil {
				t.Fatal(err)
			}
			assertSameArchive(t, localDir, dataDir, "live")
		})
	}
}
