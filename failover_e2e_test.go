package jportal_test

// End-to-end tests of control-plane resilience (DESIGN.md §15): a primary
// coordinator with durable state and a standby replica share a state
// directory; the primary is killed mid-CHUNK — without resigning, the
// SIGKILL shape — while seeded network partitions harass the client, and
// the upload must still finish byte-identical: the standby assumes
// leadership within one lease, rehydrates the membership its predecessor
// persisted, expires the dead node, and re-routes the session.

import (
	"context"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"jportal"
	"jportal/internal/fleet"
	"jportal/internal/ingest"
	"jportal/internal/ingest/client"
	"jportal/internal/netfault"
	"jportal/internal/streamfmt"
)

// coordinatorReplica is one coordinator process stand-in: election +
// coordinator + control plane + ingest handshake listener.
type coordinatorReplica struct {
	election *fleet.Election
	c        *fleet.Coordinator
	web      *httptest.Server
	ingestLn net.Listener
}

func startReplica(t *testing.T, name, stateDir string, leaseTTL time.Duration) *coordinatorReplica {
	t.Helper()
	election, err := fleet.StartElection(fleet.ElectionConfig{
		Dir: stateDir, ID: name, TTL: 200 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := fleet.NewCoordinator(fleet.CoordinatorConfig{
		LeaseTTL: leaseTTL,
		StateDir: stateDir,
		Election: election,
		Logf:     t.Logf,
	})
	web := httptest.NewServer(c.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.ServeIngest(ln)
	r := &coordinatorReplica{election: election, c: c, web: web, ingestLn: ln}
	t.Cleanup(r.kill)
	return r
}

// kill is the SIGKILL shape: everything stops at once, nothing resigns —
// the leadership lease must run out on its own. Idempotent.
func (r *coordinatorReplica) kill() {
	r.election.Close()
	r.c.Close()
	r.web.Close()
	r.ingestLn.Close()
}

func TestFleetCoordinatorFailoverMidPush(t *testing.T) {
	cases := []struct {
		subject string
		srcID   string
	}{
		{"avrora", ""},
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

			stateDir, dataDir := t.TempDir(), t.TempDir()
			primary := startReplica(t, "primary", stateDir, 400*time.Millisecond)
			if !primary.election.IsLeader() {
				t.Fatal("first replica did not assume leadership")
			}
			standby := startReplica(t, "standby", stateDir, 400*time.Millisecond)

			// Two nodes over the shared data dir, each knowing both
			// coordinator replicas.
			urls := []string{primary.web.URL, standby.web.URL}
			type nd struct {
				srv    *ingest.Server
				member *fleet.Member
				addr   string
			}
			var nodes []*nd
			for _, name := range []string{"n1", "n2"} {
				srv, err := ingest.NewServer(ingest.Config{DataDir: dataDir})
				if err != nil {
					t.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go srv.Serve(ln)
				member, err := fleet.Join(context.Background(), fleet.MemberConfig{
					Name: name, CoordinatorURLs: urls, IngestAddr: ln.Addr().String(), Logf: t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				srv.SetRouter(member)
				n := &nd{srv: srv, member: member, addr: ln.Addr().String()}
				nodes = append(nodes, n)
				t.Cleanup(func() {
					n.member.Stop()
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					n.srv.Shutdown(ctx)
				})
			}

			// Seeded directional partitions (plus drops and tears) on every
			// client dial: the acceptance gauntlet, not a clean-room network.
			inj := netfault.NewInjector(netfault.DefaultMatrix(7), nil)
			id := "failover-" + tc.subject
			p, err := client.Dial(context.Background(), client.Options{
				Addrs:       []string{primary.ingestLn.Addr().String(), standby.ingestLn.Addr().String()},
				SessionID:   id,
				SourceID:    tc.srcID,
				Backoff:     5 * time.Millisecond,
				MaxBackoff:  100 * time.Millisecond,
				MaxAttempts: 500,
				RetryBudget: -1,
				Dial: inj.Dialer("client", func(ctx context.Context, addr string) (net.Conn, error) {
					var d net.Dialer
					return d.DialContext(ctx, "tcp", addr)
				}),
				Logf: t.Logf,
			}, ncores)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if _, err := p.Send(ingest.FrameProgram, programGob); err != nil {
				t.Fatal(err)
			}
			// The primary (still leading) knows the session's owner; the
			// standby's view is not authoritative until it takes over.
			ownerName, _, ok := primary.c.Route(id)
			if !ok {
				t.Fatal("primary refused to route")
			}
			owner, survivor := nodes[0], nodes[1]
			if ownerName == "n2" {
				owner, survivor = nodes[1], nodes[0]
			}
			half := len(chunks) / 2
			for _, c := range chunks[:half] {
				if _, err := p.Send(ingest.FrameChunk, c); err != nil {
					t.Fatal(err)
				}
			}

			// Mid-CHUNK: the primary coordinator dies without resigning, and
			// so does the session's current owner — the worst failover, a
			// control-plane and data-plane loss at once. The in-flight
			// redirect target is now dead; the retry loop must walk back to
			// the entry points, reach the standby once it assumes
			// leadership, and land on the surviving node after the dead
			// one's membership lease (plus flap damping) runs out.
			primary.kill()
			killCtx, cancel := context.WithCancel(context.Background())
			cancel()
			owner.srv.Shutdown(killCtx)
			owner.member.Stop()

			deadline := time.Now().Add(15 * time.Second)
			for !standby.election.IsLeader() {
				if time.Now().After(deadline) {
					t.Fatal("standby never assumed leadership")
				}
				time.Sleep(10 * time.Millisecond)
			}
			for {
				if _, addr, ok := standby.c.Route(id); ok && addr == survivor.addr {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("standby never re-routed %q to the survivor", id)
				}
				time.Sleep(10 * time.Millisecond)
			}

			for _, c := range chunks[half:] {
				if _, err := p.Send(ingest.FrameChunk, c); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Finish(); err != nil {
				t.Fatal(err)
			}

			// The archive is byte-identical to the local collection: the
			// failover cost retries, never data.
			assertSameArchive(t, localDir, dataDir, id)
			if got := standby.election.Failovers(); got < 1 {
				t.Fatalf("coordinator_failovers = %d, want >= 1", got)
			}
			if got := standby.election.ObservedEpoch(); got < 2 {
				t.Fatalf("leadership_epoch = %d, want >= 2 (the fence must have advanced)", got)
			}
			if got := survivor.srv.Metrics().SessionsRestored.Load(); got != 1 {
				t.Fatalf("survivor SessionsRestored = %d, want 1", got)
			}
			snap := standby.c.MetricsSnapshot()
			if snap["coordinator_failovers"] < 1 || snap["leadership_epoch"] < 2 {
				t.Fatalf("failover gauges missing from the fleet snapshot: %v", snap)
			}
		})
	}
}
