package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"jportal"
	"jportal/internal/ingest"
	"jportal/internal/ingest/client"
	"jportal/internal/metrics"
	"jportal/internal/netfault"
)

// SweepConfig configures one `jportal chaos -fleet` sweep: a collected
// chunked archive pushed through an in-process fleet (coordinator + two
// nodes) whose every network edge runs behind a seeded netfault injector.
type SweepConfig struct {
	// ArchiveDir is a sealed archive (jportal collect output) to
	// push through the faulted fleet.
	ArchiveDir string
	// SourceID is the archive's trace-source backend ("" = default).
	SourceID string
	// Seed feeds the netfault matrix; the whole sweep is deterministic
	// per seed (the table reports outcome invariants only).
	Seed uint64
	// Rates are the netfault.DefaultMatrix scale factors to sweep.
	Rates []float64
	// Sessions is how many sessions to push per rate (default 2).
	Sessions int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// SweepRow is one rate's outcome. Completed and Identical are outcome
// invariants: for a fixed seed they are reproducible run to run even
// though retry timing is not, which is what makes the sweep table
// byte-comparable in CI.
type SweepRow struct {
	Rate      float64
	Matrix    netfault.Matrix
	Sessions  int
	Completed int // pushes that finished (FIN_ACK)
	Identical int // archives byte-identical to the source archive
}

// ChaosSweep pushes the archive through a freshly built in-process fleet
// once per rate, with netfault wrapping the coordinator control plane,
// the coordinator and node ingest listeners, the members' heartbeat
// transport, and the pusher's dials.
func ChaosSweep(cfg SweepConfig) ([]SweepRow, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{0, 1, 2}
	}
	rows := make([]SweepRow, 0, len(cfg.Rates))
	for _, rate := range cfg.Rates {
		row, err := sweepOnce(cfg, rate)
		if err != nil {
			return rows, fmt.Errorf("fleet sweep at rate %g: %w", rate, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// sweepOnce builds one faulted fleet, pushes the sessions sequentially,
// and verifies the archived bytes against the source archive.
func sweepOnce(cfg SweepConfig, rate float64) (SweepRow, error) {
	row := SweepRow{Rate: rate, Matrix: netfault.DefaultMatrix(cfg.Seed).Scale(rate), Sessions: cfg.Sessions}
	inj := netfault.NewInjector(row.Matrix, metrics.Default)

	dataDir, err := os.MkdirTemp("", "jportal-chaos-fleet-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dataDir)
	ctrlDir, err := os.MkdirTemp("", "jportal-chaos-ctrl-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(ctrlDir)

	// Coordinator: long membership lease relative to the sweep, so the
	// nondeterministic heartbeat interleaving can never expire a node and
	// perturb the ring mid-sweep — routing stays a pure function of the
	// session ids.
	coord := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, StateDir: ctrlDir})
	defer coord.Close()
	ctrlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return row, err
	}
	ctrlSrv := &http.Server{Handler: coord.Handler()}
	go ctrlSrv.Serve(inj.Listener("coordinator-ctrl", ctrlLn))
	defer ctrlSrv.Close()
	coordURL := "http://" + ctrlLn.Addr().String()

	coordIngest, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return row, err
	}
	go coord.ServeIngest(inj.Listener("coordinator-ingest", coordIngest))

	// Two nodes over one shared data dir — the PR 8 topology, now with a
	// faulted accept path and faulted heartbeats.
	type fleetNode struct {
		srv    *ingest.Server
		member *Member
	}
	var nodes []fleetNode
	defer func() {
		for _, n := range nodes {
			n.member.Stop()
			shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			n.srv.Shutdown(shCtx)
			cancel()
		}
	}()
	for _, name := range []string{"sweep-a", "sweep-b"} {
		srv, err := ingest.NewServer(ingest.Config{DataDir: dataDir})
		if err != nil {
			return row, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return row, err
		}
		go srv.Serve(inj.Listener("node-"+name, ln))
		joinCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		member, err := Join(joinCtx, MemberConfig{
			Name:           name,
			CoordinatorURL: coordURL,
			IngestAddr:     ln.Addr().String(),
			HTTPClient: &http.Client{
				Timeout:   5 * time.Second,
				Transport: &http.Transport{DialContext: inj.DialContext("member-" + name)},
			},
		})
		cancel()
		if err != nil {
			return row, fmt.Errorf("node %s could not join: %w", name, err)
		}
		srv.SetRouter(member)
		nodes = append(nodes, fleetNode{srv: srv, member: member})
	}

	// Sessions push sequentially through one scope, so the nth dial of a
	// sweep always draws the nth client verdict — the determinism the
	// table's cmp in ci.sh rests on.
	dial := inj.Dialer("client", func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	})
	var ids []string
	for i := 0; i < cfg.Sessions; i++ {
		id := fmt.Sprintf("chaos-fleet-%d", i)
		ids = append(ids, id)
		pushCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		_, err := client.PushArchive(pushCtx, client.Options{
			Addr:        coordIngest.Addr().String(),
			SessionID:   id,
			SourceID:    cfg.SourceID,
			MaxAttempts: 100,
			Backoff:     2 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
			RetryBudget: -1, // the sweep measures fleet survival, not client patience
			Dial:        dial,
		}, cfg.ArchiveDir)
		cancel()
		if err != nil {
			cfg.Logf("chaos -fleet: rate %g session %s failed: %v", rate, id, err)
			continue
		}
		row.Completed++
	}

	// Drain the nodes before comparing, so sealed archives are flushed.
	for _, n := range nodes {
		n.member.Stop()
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		n.srv.Shutdown(shCtx)
		cancel()
	}
	nodes = nil

	for _, id := range ids {
		if jportal.SameArchive(cfg.ArchiveDir, filepath.Join(dataDir, id)) == nil {
			row.Identical++
		}
	}
	return row, nil
}

// FormatSweep renders the sweep table. Only outcome invariants are
// printed — injected-fault counts are timing-dependent and live in
// /metrics instead — so the table is byte-identical per seed.
func FormatSweep(subject string, seed uint64, rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== chaos -fleet: %s (seed %d) ===\n", subject, seed)
	fmt.Fprintf(&b, "%-6s %-9s %-10s %-10s %-8s %-8s %-9s\n",
		"rate", "sessions", "completed", "identical", "drop", "tear", "partition")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6.2f %-9d %-10d %-10d %-8.3f %-8.3f %-9.3f\n",
			r.Rate, r.Sessions, r.Completed, r.Identical,
			r.Matrix.ConnDrop, r.Matrix.Tear, r.Matrix.Partition)
	}
	return b.String()
}
