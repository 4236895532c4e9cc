package jportal_test

// End-to-end tests of the sharded ingest fleet (DESIGN.md §14): a
// coordinator consistent-hashes sessions onto registered nodes, clients
// that HELLO the coordinator follow REDIRECTs to their owner, and — the
// core invariant — when a node dies mid-upload the reassigned node
// resumes the session from the shared durable data directory so the
// final archive is byte-identical to an uninterrupted single-node run.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"jportal"
	"jportal/internal/fleet"
	"jportal/internal/ingest"
	"jportal/internal/ingest/client"
	"jportal/internal/streamfmt"
	"jportal/internal/workload"
)

// collectArchiveSource is collectArchive with an explicit trace-source
// backend (the fleet must resume non-default-source sessions too).
func collectArchiveSource(t *testing.T, subject, dir, srcID string) {
	t.Helper()
	s := workload.MustLoad(subject, 0.3)
	rcfg := collectRcfg()
	rcfg.Source = srcID
	if _, err := jportal.CollectArchive(dir, s.Program, s.Threads, rcfg); err != nil {
		t.Fatal(err)
	}
}

// fleetHarness is one in-process fleet: a coordinator (HTTP control plane
// + ingest handshake listener) over a shared data directory.
type fleetHarness struct {
	t          *testing.T
	c          *fleet.Coordinator
	web        *httptest.Server
	ingestAddr string
	dataDir    string
}

func startFleet(t *testing.T, leaseTTL time.Duration) *fleetHarness {
	t.Helper()
	c := fleet.NewCoordinator(fleet.CoordinatorConfig{LeaseTTL: leaseTTL, Logf: t.Logf})
	t.Cleanup(c.Close)
	web := httptest.NewServer(c.Handler())
	t.Cleanup(web.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.ServeIngest(ln)
	return &fleetHarness{t: t, c: c, web: web, ingestAddr: ln.Addr().String(), dataDir: t.TempDir()}
}

// node is one fleet member: an ingest server over the shared data dir
// plus its membership client.
type node struct {
	srv    *ingest.Server
	member *fleet.Member
	addr   string
}

// addNode starts an ingest server on the shared data dir, joins the
// fleet, and installs the ring as the server's router.
func (h *fleetHarness) addNode(name string) *node {
	h.t.Helper()
	srv, err := ingest.NewServer(ingest.Config{DataDir: h.dataDir})
	if err != nil {
		h.t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.t.Fatal(err)
	}
	go srv.Serve(ln)
	sidecar := httptest.NewServer(srv.Observability())
	h.t.Cleanup(sidecar.Close)
	member, err := fleet.Join(context.Background(), fleet.MemberConfig{
		Name:           name,
		CoordinatorURL: h.web.URL,
		IngestAddr:     ln.Addr().String(),
		MetricsURL:     sidecar.URL + "/metrics",
		Logf:           h.t.Logf,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	n := &node{srv: srv, member: member, addr: ln.Addr().String()}
	h.t.Cleanup(func() {
		member.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return n
}

// kill simulates the node process dying: connections force-closed (the
// already-expired context skips the drain), heartbeats stop, and the
// lease runs out on its own — exactly the externally observable effect
// of a SIGKILL, minus the process boundary (ci.sh covers that).
func (n *node) kill() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n.srv.Shutdown(ctx)
	n.member.Stop()
}

// awaitRoute polls until the coordinator routes id to addr (the fleet
// has noticed a membership change).
func (h *fleetHarness) awaitRoute(id, addr string) {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, got, ok := h.c.Route(id)
		if ok && got == addr {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("coordinator never routed %q to %s (now: %s, %v)", id, addr, got, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fleetChunks batches a stream's records into CHUNK payloads.
func fleetChunks(t *testing.T, stream []byte, maxBytes int) [][]byte {
	t.Helper()
	frames, err := client.ChunkFrames(stream[streamfmt.HeaderLen:], maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestFleetNodeLossResume is the fleet's crash-consistency pin: for three
// golden subjects (one collected with the RISC-V E-Trace backend) the
// owning node is killed mid-CHUNK, a replacement takes over its hash
// range, and the client — restarting every reconnect from the
// coordinator — completes the upload on the new owner. The server-side
// archive must come out byte-identical to the local collection, exactly
// as if no node had died.
func TestFleetNodeLossResume(t *testing.T) {
	cases := []struct {
		subject string
		srcID   string
	}{
		{"avrora", ""},
		{"h2", ""},
		{"sunflow", "riscv-etrace"},
	}
	for _, tc := range cases {
		t.Run(tc.subject, func(t *testing.T) {
			localDir := filepath.Join(t.TempDir(), "local")
			collectArchiveSource(t, tc.subject, localDir, tc.srcID)
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
			chunks := fleetChunks(t, stream, 4<<10)
			if len(chunks) < 4 {
				t.Fatalf("subject too small to interrupt mid-upload: %d chunks", len(chunks))
			}

			h := startFleet(t, 250*time.Millisecond)
			n1 := h.addNode("n1")
			id := "fleet-" + tc.subject

			p, err := client.Dial(context.Background(), client.Options{
				Addr:        h.ingestAddr, // the coordinator, not a node
				SessionID:   id,
				SourceID:    tc.srcID,
				Backoff:     5 * time.Millisecond,
				MaxBackoff:  100 * time.Millisecond,
				MaxAttempts: 500,
				Logf:        t.Logf,
			}, ncores)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if _, err := p.Send(ingest.FrameProgram, programGob); err != nil {
				t.Fatal(err)
			}
			half := len(chunks) / 2
			for _, c := range chunks[:half] {
				if _, err := p.Send(ingest.FrameChunk, c); err != nil {
					t.Fatal(err)
				}
			}

			// The owner dies mid-upload; its replacement joins and the
			// lease expiry hands it the session's hash range.
			n1.kill()
			n2 := h.addNode("n2")
			h.awaitRoute(id, n2.addr)

			for _, c := range chunks[half:] {
				if _, err := p.Send(ingest.FrameChunk, c); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Finish(); err != nil {
				t.Fatal(err)
			}

			assertSameArchive(t, localDir, h.dataDir, id)
			if got := n2.srv.Metrics().SessionsRestored.Load(); got != 1 {
				t.Fatalf("replacement node SessionsRestored = %d, want 1", got)
			}
			// At least two REDIRECT hops: the initial route to n1 and the
			// post-loss route to n2.
			if p.Redirects() < 2 {
				t.Fatalf("Redirects = %d, want >= 2", p.Redirects())
			}
		})
	}
}

// TestFleetShardsAndAggregates pushes several sessions through the
// coordinator onto a two-node fleet and checks (a) the sharding actually
// splits sessions across nodes, and (b) `fleet report` aggregation over
// the shared data dir reassembles the single-fleet view: every session
// summarised, coverage and hot methods merged, nothing skipped.
func TestFleetShardsAndAggregates(t *testing.T) {
	localDir := filepath.Join(t.TempDir(), "local")
	collectArchive(t, "fop", localDir)

	h := startFleet(t, time.Minute)
	n1 := h.addNode("n1")
	n2 := h.addNode("n2")

	// Pick session ids that land on both nodes, so the test pins real
	// sharding rather than one node winning every hash.
	byAddr := map[string][]string{}
	for i := 0; len(byAddr[n1.addr]) < 2 || len(byAddr[n2.addr]) < 2; {
		id := fmt.Sprintf("shard-%d", i)
		i++
		_, addr, ok := h.c.Route(id)
		if !ok {
			t.Fatal("fleet refused to route")
		}
		if len(byAddr[addr]) < 2 {
			byAddr[addr] = append(byAddr[addr], id)
		}
	}
	var ids []string
	ids = append(ids, byAddr[n1.addr]...)
	ids = append(ids, byAddr[n2.addr]...)

	for _, id := range ids {
		if _, err := client.PushArchive(context.Background(), client.Options{
			Addr: h.ingestAddr, SessionID: id, MaxChunkBytes: 8 << 10,
		}, localDir); err != nil {
			t.Fatalf("push %s: %v", id, err)
		}
	}
	for _, id := range ids {
		assertSameArchive(t, localDir, h.dataDir, id)
	}
	if a, b := n1.srv.Metrics().SessionsSealed.Load(), n2.srv.Metrics().SessionsSealed.Load(); a != 2 || b != 2 {
		t.Fatalf("sessions split %d/%d across nodes, want 2/2", a, b)
	}

	agg, err := fleet.Aggregate(h.dataDir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Sessions) != len(ids) || len(agg.Skipped) != 0 {
		t.Fatalf("aggregated %d sessions, %d skipped (want %d, 0): %+v",
			len(agg.Sessions), len(agg.Skipped), len(ids), agg.Skipped)
	}
	if agg.Ratio() <= 0 || agg.Steps == 0 || len(agg.HotMethods) == 0 {
		t.Fatalf("empty aggregation: ratio=%v steps=%d hot=%d", agg.Ratio(), agg.Steps, len(agg.HotMethods))
	}
	// All four sessions ran the same subject, so every summary agrees.
	for _, s := range agg.Sessions {
		if s.Steps != agg.Sessions[0].Steps || s.CoveredInstrs != agg.Sessions[0].CoveredInstrs {
			t.Fatalf("session summaries diverge: %+v vs %+v", s, agg.Sessions[0])
		}
	}

	// The coordinator's fleet metrics merge the node sidecars.
	resp, err := http.Get(h.web.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	snap := h.c.MetricsSnapshot()
	if snap["fleet_nodes"] != 2 {
		t.Fatalf("fleet_nodes = %d", snap["fleet_nodes"])
	}
	if snap["fleet_sessions_redirected"] != int64(len(ids)) {
		t.Fatalf("fleet_sessions_redirected = %d, want %d", snap["fleet_sessions_redirected"], len(ids))
	}
	if snap["sessions_sealed"] != int64(len(ids)) {
		t.Fatalf("aggregated sessions_sealed = %d, want %d", snap["sessions_sealed"], len(ids))
	}
}
