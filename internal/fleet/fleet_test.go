package fleet

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"jportal/internal/ingest"
)

func startCoordinator(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 200 * time.Millisecond
	}
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	web := httptest.NewServer(c.Handler())
	t.Cleanup(web.Close)
	return c, web
}

func TestRegisterHeartbeatExpiry(t *testing.T) {
	clock := time.Now()
	c, web := startCoordinator(t, CoordinatorConfig{
		LeaseTTL: time.Minute,
		now:      func() time.Time { return clock },
	})

	m1, err := Join(context.Background(), MemberConfig{
		Name: "n1", CoordinatorURL: web.URL, IngestAddr: "127.0.0.1:1001",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Stop()
	m2, err := Join(context.Background(), MemberConfig{
		Name: "n2", CoordinatorURL: web.URL, IngestAddr: "127.0.0.1:1002",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()

	ms := c.membership()
	if len(ms.Nodes) != 2 || ms.Nodes["n1"] != "127.0.0.1:1001" {
		t.Fatalf("membership %+v", ms)
	}
	// Both joiners saw the fleet as of their own registration.
	if nodes := m2.Nodes(); len(nodes) != 2 {
		t.Fatalf("m2 sees %v", nodes)
	}
	if _, _, ok := c.Route("some-session"); !ok {
		t.Fatal("populated fleet refused to route")
	}

	// n2's lease lapses; the sweep must reassign its range to n1.
	clock = clock.Add(2 * time.Minute)
	m1.post(context.Background(), "/heartbeat") // n1 renews at the new clock
	c.expire()
	if nodes := c.membership().Nodes; len(nodes) != 1 || nodes["n2"] != "" {
		t.Fatalf("after expiry: %v", nodes)
	}
	name, addr, ok := c.Route("some-session")
	if !ok || name != "n1" || addr != "127.0.0.1:1001" {
		t.Fatalf("route after expiry: %s %s %v", name, addr, ok)
	}
	if got := c.rebalances.Load(); got < 3 { // 2 joins + 1 expiry
		t.Fatalf("rebalances = %d, want >= 3", got)
	}

	// Drain is the graceful counterpart: immediate removal, idempotent.
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if nodes := c.membership().Nodes; len(nodes) != 0 {
		t.Fatalf("after drain: %v", nodes)
	}
}

func TestMemberRouteFailsOpen(t *testing.T) {
	_, web := startCoordinator(t, CoordinatorConfig{LeaseTTL: time.Minute})
	m, err := Join(context.Background(), MemberConfig{
		Name: "solo", CoordinatorURL: web.URL, IngestAddr: "127.0.0.1:1001",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	// A single-node fleet owns everything locally.
	if owner, local := m.Route("any"); !local || owner != "" {
		t.Fatalf("Route = %q, %v", owner, local)
	}
	// An empty ring (coordinator unreachable since before the first
	// membership) must serve locally, not refuse.
	empty := &Member{cfg: MemberConfig{Name: "x"}, ring: BuildRing(nil)}
	if _, local := empty.Route("any"); !local {
		t.Fatal("empty ring did not fail open")
	}
}

// helloCoordinator performs one raw HELLO against the coordinator's
// ingest listener and returns the answer frame.
func helloCoordinator(t *testing.T, addr string, version uint32, id string) (byte, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := ingest.WriteFrame(conn, ingest.FrameHello,
		ingest.AppendHelloSource(nil, version, 2, id, "")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ingest.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return typ, payload
}

func TestCoordinatorAnswersHellos(t *testing.T) {
	c, web := startCoordinator(t, CoordinatorConfig{LeaseTTL: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.ServeIngest(ln)

	// Empty fleet: BUSY.
	typ, _ := helloCoordinator(t, ln.Addr().String(), ingest.ProtoVersion, "s")
	if typ != ingest.FrameBusy {
		t.Fatalf("empty fleet answered %#x, want BUSY", typ)
	}

	m, err := Join(context.Background(), MemberConfig{
		Name: "n1", CoordinatorURL: web.URL, IngestAddr: "127.0.0.1:2001",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	// REDIRECT to the owner.
	typ, payload := helloCoordinator(t, ln.Addr().String(), ingest.ProtoVersion, "s")
	if typ != ingest.FrameRedirect {
		t.Fatalf("answered %#x, want REDIRECT", typ)
	}
	if addr, err := ingest.ParseRedirect(payload); err != nil || addr != "127.0.0.1:2001" {
		t.Fatalf("REDIRECT to %q (%v)", addr, err)
	}

	// Any other protocol version: typed protocol-version ERR — never a
	// frame the client can't parse.
	typ, payload = helloCoordinator(t, ln.Addr().String(), ingest.ProtoVersion-1, "s")
	if typ != ingest.FrameErr {
		t.Fatalf("v%d answered %#x, want ERR", ingest.ProtoVersion-1, typ)
	}
	if category, _ := ingest.SplitErr(payload); category != ingest.ErrCategoryProtocol {
		t.Fatalf("ERR %q lacks the protocol-version category", payload)
	}

	if got := c.redirected.Load(); got != 1 {
		t.Fatalf("redirected = %d, want 1", got)
	}
}

// settledGoroutines waits up to two seconds for the goroutine count to
// fall to want and returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestShutdownLeavesNoGoroutines: an elected coordinator answering HELLOs
// and a joined member leave no goroutine behind once the member drains,
// the coordinator closes and the election stops.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	e, err := StartElection(ElectionConfig{Dir: dir, ID: "solo", TTL: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, StateDir: dir, Election: e})
	web := httptest.NewServer(c.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- c.ServeIngest(ln) }()
	m, err := Join(context.Background(), MemberConfig{
		Name: "n1", CoordinatorURL: web.URL, IngestAddr: "127.0.0.1:2001",
	})
	if err != nil {
		t.Fatal(err)
	}
	if typ, _ := helloCoordinator(t, ln.Addr().String(), ingest.ProtoVersion, "s"); typ != ingest.FrameRedirect {
		t.Fatalf("answered %#x, want REDIRECT", typ)
	}

	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := <-served; err != nil {
		t.Fatalf("ServeIngest: %v", err)
	}
	e.Close()
	web.Close()
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines left behind after shutdown", n-before)
	}
}

func TestCoordinatorMetricsAggregation(t *testing.T) {
	// A fake node sidecar standing in for a real ingest server's /metrics.
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]int64{
			"chunks_ingested":   5,
			"sessions_restored": 2,
		})
	}))
	defer node.Close()

	_, web := startCoordinator(t, CoordinatorConfig{LeaseTTL: time.Minute})
	m, err := Join(context.Background(), MemberConfig{
		Name: "n1", CoordinatorURL: web.URL, IngestAddr: "127.0.0.1:2001",
		MetricsURL: node.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	resp, err := web.Client().Get(web.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	// The fleet counters are pre-registered: present before any traffic.
	for _, key := range []string{
		"fleet_nodes", "fleet_rebalances", "fleet_sessions_redirected",
		"fleet_sessions_resumed_after_loss", "fleet_scrape_errors",
		"fleet_ring_epoch", "ring_flaps_damped",
		"coordinator_failovers", "leadership_epoch",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("fleet metrics missing %q", key)
		}
	}
	if snap["fleet_nodes"] != 1 || snap["chunks_ingested"] != 5 {
		t.Fatalf("aggregated snapshot: %v", snap)
	}
	if snap["fleet_sessions_resumed_after_loss"] != 2 {
		t.Fatalf("fleet_sessions_resumed_after_loss = %d, want 2 (from node sessions_restored)",
			snap["fleet_sessions_resumed_after_loss"])
	}
}

func TestCoordinatorRejectsBadRegistrations(t *testing.T) {
	c, _ := startCoordinator(t, CoordinatorConfig{LeaseTTL: time.Minute})
	for _, reg := range []registration{
		{Name: "", IngestAddr: "x:1"},
		{Name: "../evil", IngestAddr: "x:1"},
		{Name: "ok", IngestAddr: ""},
		{Name: "ok", IngestAddr: strings.Repeat("a", ingest.MaxRedirectAddrLen+1)},
	} {
		if err := c.register(reg); err == nil {
			t.Errorf("register(%+v) accepted", reg)
		}
	}
	if c.membership().Nodes["ok"] != "" {
		t.Fatal("rejected registration leaked into the member set")
	}
}
