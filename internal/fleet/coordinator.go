package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"jportal/internal/ingest"
	"jportal/internal/iofault"
	"jportal/internal/metrics"
)

// Membership is the coordinator's answer to register/heartbeat/nodes
// requests: the live member set plus the lease the caller must keep
// renewing. Members rebuild the hash ring locally from Nodes (the ring is
// a pure function of it — see BuildRing), so this is the only fleet state
// that ever crosses the wire.
type Membership struct {
	Nodes          map[string]string `json:"nodes"` // name → ingest address
	LeaseTTLMillis int64             `json:"lease_ttl_ms"`
	// RingEpoch counts ring rebuilds monotonically (persisted across
	// coordinator restarts), so members can tell a fresher membership
	// answer from a stale one during a failover.
	RingEpoch int64 `json:"ring_epoch,omitempty"`
}

// registration is the body of register/heartbeat/deregister requests.
type registration struct {
	Name       string `json:"name"`
	IngestAddr string `json:"ingest_addr,omitempty"`
	MetricsURL string `json:"metrics_url,omitempty"` // node /metrics sidecar, for fleet aggregation
}

// CoordinatorConfig configures a Coordinator. The zero value works.
type CoordinatorConfig struct {
	// LeaseTTL is how long a member stays routable without a heartbeat.
	// Default 10s. Members heartbeat at TTL/3; the expiry sweep runs at
	// TTL/4, so a dead node stops owning sessions within ~1.3 leases.
	LeaseTTL time.Duration

	// Logf, when set, receives one line per membership change.
	Logf func(format string, args ...any)

	// HTTPClient scrapes member /metrics endpoints for fleet aggregation.
	// Default: 2-second-timeout client.
	HTTPClient *http.Client

	// StateDir, when set, makes membership durable: every membership
	// change is persisted (CRC-sealed, crash-atomic — internal/ckpt over
	// internal/fsatomic) to <StateDir>/coordinator.state before it is
	// acknowledged, and a restarted coordinator rehydrates the fleet from
	// it — every rehydrated member gets one fresh lease to heartbeat in —
	// instead of coming back empty and triggering a mass rebalance.
	StateDir string

	// Election, when set, puts this coordinator behind a leadership lease
	// (standby failover): while not leading it answers control-plane
	// posts with 503 and ingest HELLOs with BUSY, and on winning the
	// lease it rehydrates the durable state its predecessor persisted.
	Election *Election

	// FlapDamping is the heartbeat-miss hysteresis: an expired lease
	// stays routable this much longer before the member is dropped, so
	// one lost heartbeat — or the heartbeat gap of a coordinator
	// failover — does not churn the ring. A heartbeat arriving inside
	// the window cancels the removal without any rebalance (counted in
	// ring_flaps_damped). Default LeaseTTL/2.
	FlapDamping time.Duration

	// MinDwell is the minimum time a member stays in the ring before
	// lease expiry may remove it (explicit deregistration is always
	// immediate): a node that joins and immediately goes quiet should
	// not cause two rebalances in one lease. Default LeaseTTL.
	MinDwell time.Duration

	// FS, when set, routes the coordinator's durable-state I/O through a
	// fault-injecting filesystem (internal/iofault). Nil means the real
	// filesystem. The control plane already treats a failed persist as
	// fatal to the ACK, so injected ENOSPC/EIO here exercises the same
	// persist-before-ACK contract the chaos sweeps pin for ingest.
	FS iofault.FS

	// now substitutes the clock in tests.
	now func() time.Time
}

// fsys returns the configured filesystem, defaulting to the real one.
func (cfg *CoordinatorConfig) fsys() iofault.FS {
	if cfg.FS != nil {
		return cfg.FS
	}
	return iofault.OS
}

type memberEntry struct {
	ingestAddr string
	metricsURL string
	deadline   time.Time
	joinedAt   time.Time
}

// Coordinator is the fleet control plane: it tracks members under
// heartbeat leases, answers membership queries, redirects ingest HELLOs
// to each session's owner, and aggregates the fleet's metrics.
type Coordinator struct {
	cfg CoordinatorConfig

	mu        sync.Mutex
	members   map[string]*memberEntry
	ring      *Ring
	ringEpoch int64 // bumped per rebuild, persisted with the membership
	dirty     bool  // membership changed since the last successful persist
	ledEpoch  int64 // leadership epoch the current membership was rehydrated under
	closed    bool

	rebalances  atomic.Int64 // membership changes (join, leave, lease expiry)
	redirected  atomic.Int64 // REDIRECT frames sent
	flapsDamped atomic.Int64 // heartbeats that arrived inside the damping window

	stop chan struct{}
	done chan struct{}

	lnMu      sync.Mutex
	listeners []net.Listener
}

// NewCoordinator starts a coordinator (including its lease-expiry sweep;
// call Close to stop it).
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 2 * time.Second}
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.FlapDamping <= 0 {
		cfg.FlapDamping = cfg.LeaseTTL / 2
	}
	if cfg.MinDwell <= 0 {
		cfg.MinDwell = cfg.LeaseTTL
	}
	c := &Coordinator{
		cfg:     cfg,
		members: make(map[string]*memberEntry),
		ring:    BuildRing(nil),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	c.mu.Lock()
	c.rehydrateLocked()
	c.mu.Unlock()
	go c.expireLoop()
	return c
}

// leading reports whether this coordinator may mutate fleet state.
// Coordinators without an election always lead.
func (c *Coordinator) leading() bool {
	e := c.cfg.Election
	return e == nil || e.IsLeader()
}

// syncLeadershipLocked notices a leadership transition (our election
// epoch changed since the membership was last rehydrated) and reloads the
// durable state the previous leader persisted, before the first mutation
// under the new epoch is applied. Caller holds c.mu.
func (c *Coordinator) syncLeadershipLocked() {
	e := c.cfg.Election
	if e == nil {
		return
	}
	ep := e.Epoch()
	if ep == 0 || ep == c.ledEpoch {
		return
	}
	c.ledEpoch = ep
	c.rehydrateLocked()
}

// Close stops the expiry sweep and any ServeIngest listeners.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	<-c.done
	c.lnMu.Lock()
	for _, ln := range c.listeners {
		ln.Close()
	}
	c.lnMu.Unlock()
}

func (c *Coordinator) expireLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.expire()
		}
	}
}

// expire drops members whose lease lapsed and rebuilds the ring. Each
// expiry is a rebalance: the dead node's hash range moves to its ring
// successors, which will resume the sessions from the shared data dir.
// Two guards damp ring flapping: a lapsed lease gets FlapDamping of
// extra grace (one lost heartbeat is not a death), and a member is never
// expired before it has dwelt MinDwell in the ring.
func (c *Coordinator) expire() {
	if !c.leading() {
		return // a standby's view is not authoritative; never expire from it
	}
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncLeadershipLocked()
	changed := false
	for name, m := range c.members {
		if !now.After(m.deadline) {
			continue
		}
		if now.Before(m.joinedAt.Add(c.cfg.MinDwell)) || !now.After(m.deadline.Add(c.cfg.FlapDamping)) {
			continue // damped: give the heartbeat time to come back
		}
		delete(c.members, name)
		changed = true
		c.cfg.Logf("fleet: node %s lease expired, reassigning its sessions", name)
	}
	if changed {
		c.rebuildLocked()
		if err := c.persistLocked(); err != nil {
			c.cfg.Logf("fleet: persisting membership after expiry failed: %v", err)
		}
	}
}

// rebuildLocked recomputes the ring, bumps the ring epoch and counts the
// rebalance. Caller holds c.mu and is responsible for persisting.
func (c *Coordinator) rebuildLocked() {
	c.ring = BuildRing(c.memberAddrsLocked())
	c.ringEpoch++
	c.dirty = true
	c.rebalances.Add(1)
}

func (c *Coordinator) memberAddrsLocked() map[string]string {
	nodes := make(map[string]string, len(c.members))
	for name, m := range c.members {
		nodes[name] = m.ingestAddr
	}
	return nodes
}

// membership snapshots the member set for a response body.
func (c *Coordinator) membership() Membership {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Membership{
		Nodes:          c.memberAddrsLocked(),
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		RingEpoch:      c.ringEpoch,
	}
}

// register upserts a member and extends its lease. Membership changes
// (new node, or a known node moving address) rebuild the ring and are
// persisted durably BEFORE the caller acknowledges — the same
// persist-before-ACK discipline as the ingest data plane, so a
// coordinator crash never forgets a membership it confirmed.
func (c *Coordinator) register(reg registration) error {
	if reg.Name == "" || !ingest.ValidSessionID(reg.Name) {
		return fmt.Errorf("fleet: invalid node name %q", reg.Name)
	}
	if reg.IngestAddr == "" {
		return fmt.Errorf("fleet: node %s registered without an ingest address", reg.Name)
	}
	if len(reg.IngestAddr) > ingest.MaxRedirectAddrLen {
		return fmt.Errorf("fleet: node %s ingest address exceeds %d bytes", reg.Name, ingest.MaxRedirectAddrLen)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncLeadershipLocked()
	now := c.cfg.now()
	prev, known := c.members[reg.Name]
	entry := &memberEntry{
		ingestAddr: reg.IngestAddr,
		metricsURL: reg.MetricsURL,
		deadline:   now.Add(c.cfg.LeaseTTL),
		joinedAt:   now,
	}
	if known {
		entry.joinedAt = prev.joinedAt
		if now.After(prev.deadline) {
			// The lease had lapsed but the damping window kept the member
			// in the ring: the heartbeat came back in time, so this renewal
			// is a flap the hysteresis absorbed — no rebalance happened.
			c.flapsDamped.Add(1)
		}
	}
	c.members[reg.Name] = entry
	if !known || prev.ingestAddr != reg.IngestAddr {
		c.rebuildLocked()
		c.cfg.Logf("fleet: node %s joined at %s (%d nodes)", reg.Name, reg.IngestAddr, len(c.members))
	}
	if c.dirty {
		if err := c.persistLocked(); err != nil {
			return fmt.Errorf("fleet: membership not durable: %w", err)
		}
	}
	return nil
}

// deregister removes a member (drain-on-SIGTERM path). Unknown names are
// a no-op: deregister must be idempotent across retries.
func (c *Coordinator) deregister(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncLeadershipLocked()
	if _, ok := c.members[name]; !ok {
		return
	}
	delete(c.members, name)
	c.rebuildLocked()
	if err := c.persistLocked(); err != nil {
		c.cfg.Logf("fleet: persisting membership after drain failed: %v", err)
	}
	c.cfg.Logf("fleet: node %s drained (%d nodes)", name, len(c.members))
}

// Route maps a session id to its owning member. ok is false while the
// fleet is empty.
func (c *Coordinator) Route(sessionID string) (name, addr string, ok bool) {
	c.mu.Lock()
	ring := c.ring
	c.mu.Unlock()
	return ring.Route(sessionID)
}

// Handler returns the coordinator's HTTP control plane:
//
//	POST /register    join the fleet (body: registration JSON) → Membership
//	POST /heartbeat   renew the lease (same body) → Membership
//	POST /deregister  leave the fleet (drain) → 204
//	GET  /nodes       the live Membership
//	GET  /metrics     fleet-aggregated counters (JSON object)
//	GET  /healthz     200 "ok"
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /register", func(w http.ResponseWriter, r *http.Request) {
		c.handleJoin(w, r)
	})
	mux.HandleFunc("POST /heartbeat", func(w http.ResponseWriter, r *http.Request) {
		c.handleJoin(w, r)
	})
	mux.HandleFunc("POST /deregister", func(w http.ResponseWriter, r *http.Request) {
		if !c.leading() {
			http.Error(w, "fleet: not the leader", http.StatusServiceUnavailable)
			return
		}
		reg, err := readRegistration(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.deregister(reg.Name)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /nodes", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.membership())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		metrics.WriteSortedJSON(w, c.MetricsSnapshot())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// handleJoin serves both register and heartbeat: an upsert plus a lease
// extension. A heartbeat from a node the coordinator forgot (restart,
// lease expiry during a network partition) re-registers it, so members
// never need to distinguish the two. Standbys answer 503 — members
// rotate to the next coordinator on their list.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	if !c.leading() {
		http.Error(w, "fleet: not the leader", http.StatusServiceUnavailable)
		return
	}
	reg, err := readRegistration(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.register(reg); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.membership())
}

func readRegistration(body io.Reader) (registration, error) {
	var reg registration
	if err := json.NewDecoder(io.LimitReader(body, 1<<16)).Decode(&reg); err != nil {
		return reg, fmt.Errorf("fleet: bad request body: %w", err)
	}
	return reg, nil
}

// ServeIngest answers ingest-protocol HELLOs on ln with the session's
// route: REDIRECT to the owning node, BUSY while the fleet is empty (the
// client retries; a node may still be registering), and a typed
// "protocol-version" ERR for any other protocol version. The coordinator
// never ingests data itself — every connection ends after the handshake
// answer. Returns when ln closes.
func (c *Coordinator) ServeIngest(ln net.Listener) error {
	c.lnMu.Lock()
	c.listeners = append(c.listeners, ln)
	c.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-c.stop:
				return nil
			default:
				return err
			}
		}
		go c.answerHello(conn)
	}
}

func (c *Coordinator) answerHello(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := ingest.ReadFrame(conn)
	if err != nil {
		return
	}
	reply := func(typ byte, payload []byte) { ingest.WriteFrame(conn, typ, payload) }
	if typ != ingest.FrameHello {
		reply(ingest.FrameErr, []byte("coordinator: expected HELLO"))
		return
	}
	version, _, id, _, err := ingest.ParseHello(payload)
	if err != nil {
		reply(ingest.FrameErr, []byte(fmt.Sprintf("coordinator: %v", err)))
		return
	}
	if version != ingest.ProtoVersion {
		reply(ingest.FrameErr, ingest.FormatErr(ingest.ErrCategoryProtocol,
			fmt.Sprintf("unsupported protocol %d (want %d)", version, ingest.ProtoVersion)))
		return
	}
	if !ingest.ValidSessionID(id) {
		reply(ingest.FrameErr, []byte(fmt.Sprintf("coordinator: invalid session id %q", id)))
		return
	}
	if !c.leading() {
		// A standby's ring is not authoritative; tell the client to retry
		// (it rotates to another coordinator address meanwhile). The hint
		// is half the leadership lease: about how long until either the
		// leader answers elsewhere or this standby takes over.
		reply(ingest.FrameBusy, ingest.AppendBusy(nil, uint32((c.cfg.Election.cfg.TTL/2).Milliseconds())))
		return
	}
	_, addr, ok := c.Route(id)
	if !ok {
		// Empty fleet: ask the client to retry — a node may be seconds from
		// registering.
		reply(ingest.FrameBusy, ingest.AppendBusy(nil, uint32((c.cfg.LeaseTTL/2).Milliseconds())))
		return
	}
	c.redirected.Add(1)
	reply(ingest.FrameRedirect, ingest.AppendRedirect(nil, addr))
}

// MetricsSnapshot aggregates the fleet view: the coordinator's own
// counters plus the sum of every member's /metrics sidecar. Every
// coordinator-owned key — the fleet_* set plus the resilience gauges
// (ring_flaps_damped, coordinator_failovers, leadership_epoch) — is
// pre-registered: present (zero) before any traffic, so scrapers can
// alert on them from the first scrape (DESIGN.md §14/§15).
func (c *Coordinator) MetricsSnapshot() map[string]int64 {
	c.mu.Lock()
	urls := make(map[string]string, len(c.members))
	for name, m := range c.members {
		if m.metricsURL != "" {
			urls[name] = m.metricsURL
		}
	}
	nodes := int64(len(c.members))
	ringEpoch := c.ringEpoch
	c.mu.Unlock()

	out := map[string]int64{
		"fleet_nodes":                       nodes,
		"fleet_rebalances":                  c.rebalances.Load(),
		"fleet_sessions_redirected":         c.redirected.Load(),
		"fleet_sessions_resumed_after_loss": 0,
		"fleet_scrape_errors":               0,
		"fleet_ring_epoch":                  ringEpoch,
		"ring_flaps_damped":                 c.flapsDamped.Load(),
		"coordinator_failovers":             c.cfg.Election.Failovers(),
		"leadership_epoch":                  c.cfg.Election.ObservedEpoch(),
	}
	for _, url := range urls {
		snap, err := scrapeMetrics(c.cfg.HTTPClient, url)
		if err != nil {
			out["fleet_scrape_errors"]++
			continue
		}
		for k, v := range snap {
			out[k] += v
		}
	}
	// A session resumed from durable state on any node is, fleet-wide, a
	// session that survived a node loss or restart.
	out["fleet_sessions_resumed_after_loss"] += out["sessions_restored"]
	return out
}

func scrapeMetrics(hc *http.Client, url string) (map[string]int64, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s: status %s", url, resp.Status)
	}
	var snap map[string]int64
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", url, err)
	}
	return snap, nil
}
