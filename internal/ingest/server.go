package ingest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jportal"
	"jportal/internal/fault"
	"jportal/internal/fsatomic"
	"jportal/internal/iofault"
	"jportal/internal/metrics"
	"jportal/internal/source"
	"jportal/internal/streamfmt"
	"jportal/internal/watchdog"
)

// Router decides, for a sharded ingest fleet, which node owns a session.
// Route returns the owning node's ingest address and whether that node is
// this process. A server with no router (standalone mode) owns everything.
// Implementations must be safe for concurrent use; internal/fleet.Member
// is the production implementation.
type Router interface {
	Route(sessionID string) (owner string, local bool)
}

// Config configures a Server.
type Config struct {
	// DataDir is where per-session archives are written: one chunked-layout
	// run archive per session id, loadable by jportal decode/stream.
	DataDir string
	// QueueDepth bounds each session's inbound queue (frames accepted but
	// not yet archived). 0 means 64. A full queue stops the connection's
	// reader until the archiver catches up: backpressure propagates to the
	// client through TCP flow control, and nothing is dropped.
	QueueDepth int
	// IdleTimeout closes a connection with no complete frame for this
	// long, so vanished agents do not hold their session attached forever.
	// 0 means 2 minutes.
	IdleTimeout time.Duration
	// MaxSessions caps how many sessions may have a connection attached at
	// once. A HELLO past the cap is answered with BUSY instead of being
	// accepted. 0 means unlimited.
	MaxSessions int
	// MemoryBudgetBytes bounds the payload bytes queued across every
	// session (accepted but not yet archived). New sessions are refused
	// with BUSY while the budget is exhausted, and data frames that would
	// exceed it are shed with a NACK — the client retransmits after
	// backoff. 0 means unlimited.
	MemoryBudgetBytes int64
	// BreakerNacks is the per-session circuit breaker: a session whose
	// connection earns this many NACKs (budget sheds, sequence gaps) is
	// poisoned before it burns more budget. 0 disables the breaker.
	BreakerNacks int
	// StallAfter poisons a session whose writer makes no progress for this
	// long while frames are queued — a wedged disk or a hung archive write
	// is detected instead of holding queue memory forever. 0 disables the
	// writer watchdog.
	StallAfter time.Duration
	// Router, when set, scopes this server to a fleet shard: a HELLO for a
	// session the router places on another node is answered with REDIRECT
	// instead of being served. Usually installed after listening via SetRouter,
	// once the advertised address is known.
	Router Router
	// Logf, when set, receives one line per connection-level event.
	Logf func(format string, args ...any)
	// Registry receives the typed quarantine counters (and is merged into
	// the /metrics sidecar). Default: metrics.Default, the process-wide
	// registry analysis sessions also report to.
	Registry *metrics.Registry
	// IOFault, when set, threads every session's storage operations — the
	// archive stream, program writes aside, and the durable ingest.state —
	// through the seeded disk-fault injector. Nil (the production default)
	// leaves the paths pointer-identical to the unfaulted code.
	IOFault *iofault.Injector
}

func (c *Config) fill() error {
	if c.DataDir == "" {
		return errors.New("ingest: Config.DataDir is required")
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("ingest: QueueDepth %d is not positive", c.QueueDepth)
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.MaxSessions < 0 {
		return fmt.Errorf("ingest: MaxSessions %d is negative", c.MaxSessions)
	}
	if c.MemoryBudgetBytes < 0 {
		return fmt.Errorf("ingest: MemoryBudgetBytes %d is negative", c.MemoryBudgetBytes)
	}
	if c.BreakerNacks < 0 {
		return fmt.Errorf("ingest: BreakerNacks %d is negative", c.BreakerNacks)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Registry == nil {
		c.Registry = metrics.Default
	}
	return nil
}

// Server accepts agent connections and archives each session's record
// stream as a chunked run archive under DataDir/<session id>.
type Server struct {
	cfg     Config
	metrics Metrics

	queuedBytes atomic.Int64 // payload bytes accepted but not yet archived
	diskFull    atomic.Bool  // last archive write hit ENOSPC; gates new sessions

	mu       sync.Mutex
	ln       net.Listener
	sessions map[string]*session
	conns    map[net.Conn]struct{}
	attached int // sessions with a connection bound (admission gate)
	drain    bool
	stopped  bool
	force    chan struct{}
	forceOne sync.Once

	dog *watchdog.Supervisor // writer-stall supervisor; nil when disabled

	connWG   sync.WaitGroup
	writerWG sync.WaitGroup
}

// errBusy reports an admission refusal: the server is at capacity but the
// condition is transient, so the client should redial after RetryAfter.
type errBusy struct {
	reason     string
	retryAfter time.Duration
}

func (e *errBusy) Error() string {
	return fmt.Sprintf("server busy (%s), retry in %v", e.reason, e.retryAfter)
}

// busyRetryAfter is the redial hint sent in BUSY frames. The client adds
// its own jitter, so a fixed hint does not synchronize a thundering herd.
const busyRetryAfter = time.Second

// NewServer validates cfg and returns an idle server; call Serve to accept.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	// Pre-register every fault-class and quarantine counter at zero, so the
	// /metrics sidecar always exposes the full vocabulary — a scraper can
	// alert on a counter before the first fault, not only after.
	for _, c := range fault.Classes() {
		cfg.Registry.Add(fault.InjectCounterName(c), 0)
	}
	for _, r := range fault.Reasons() {
		cfg.Registry.Add(fault.QuarantineCounterName(r), 0)
	}
	// The robustness-layer counters the analysis path increments through the
	// same registry: pre-declared so the sidecar exposes them from scrape one.
	cfg.Registry.Add(metrics.CounterWatchdogStalls, 0)
	cfg.Registry.Add(metrics.CounterCheckpointsWritten, 0)
	// Fleet-resilience counters: injected network faults (the netfault
	// layer mirrors per-class counts alongside) and in-process pushers
	// that exhausted their retry budget.
	cfg.Registry.Add(metrics.CounterNetfaultInjected, 0)
	cfg.Registry.Add(metrics.CounterClientRetryBudget, 0)
	// Storage-durability vocabulary (DESIGN.md §16): injected disk faults
	// and the scrubber/retention outcomes, pre-declared like the rest.
	cfg.Registry.Add(metrics.CounterIofaultInjected, 0)
	for _, c := range iofault.Classes() {
		cfg.Registry.Add(c.InjectCounterName(), 0)
	}
	for _, name := range []string{
		metrics.CounterScrubSessionsScanned, metrics.CounterScrubBytesVerified,
		metrics.CounterScrubTornTails, metrics.CounterScrubRefetched,
		metrics.CounterScrubQuarantined, metrics.CounterScrubReset,
		metrics.CounterRetentionDeleted, metrics.CounterRetentionBytes,
	} {
		cfg.Registry.Add(name, 0)
	}
	srv := &Server{
		cfg:      cfg,
		sessions: make(map[string]*session),
		conns:    make(map[net.Conn]struct{}),
		force:    make(chan struct{}),
	}
	if cfg.StallAfter > 0 {
		srv.dog = watchdog.New(cfg.StallAfter/4, cfg.StallAfter)
		srv.dog.Start()
	}
	return srv, nil
}

// Metrics exposes the server's counters (the HTTP sidecar serves the same
// numbers; tests read them directly).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// SessionBusy reports whether the named session is actively being written
// in this process — a connection attached, frames queued, or the writer
// mid-frame. The integrated scrub sweeper skips busy sessions: their
// in-memory frontier is ahead of what a concurrent verify could see.
func (s *Server) SessionBusy(id string) bool {
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		return false
	}
	if len(sess.queue) > 0 || sess.working.Load() {
		return true
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.conn != nil
}

// SetRouter installs (or replaces) the fleet router. Fleet membership is
// usually established after the listener is up — the advertised address
// must be known before the node can claim a hash range — so the router
// arrives after NewServer. A nil router returns the server to standalone
// mode.
func (s *Server) SetRouter(r Router) {
	s.mu.Lock()
	s.cfg.Router = r
	s.mu.Unlock()
}

func (s *Server) router() Router {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Router
}

// Addr returns the listener's address once Serve has been called — the way
// to discover the port after listening on ":0".
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drain
}

// Serve accepts connections on ln until Shutdown. It returns nil after a
// clean shutdown, or the accept error that stopped it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.drain {
		s.mu.Unlock()
		ln.Close()
		return errors.New("ingest: server is shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.drain {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Shutdown drains the server: stop accepting, let attached sessions finish
// their uploads, archive everything queued, and flush state. When ctx
// expires first, remaining connections are force-closed — already-queued
// frames are still archived before writers exit, so nothing acknowledged
// is ever lost.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.drain = true
	s.stopped = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	readersDone := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(readersDone)
	}()
	var err error
	select {
	case <-readersDone:
	case <-ctx.Done():
		err = ctx.Err()
		s.forceOne.Do(func() { close(s.force) })
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-readersDone
	}

	// No reader can enqueue anymore; closing the queues lets each writer
	// drain what it has and exit, closing its archive file. The wait is
	// bounded by ctx: a writer hung on a wedged disk (or a stalled archive
	// write) must not block shutdown past the caller's deadline — its
	// session simply is not drained, and the state file still reflects the
	// last acknowledged frame.
	s.mu.Lock()
	for _, sess := range s.sessions {
		close(sess.queue)
	}
	s.mu.Unlock()
	writersDone := make(chan struct{})
	go func() {
		s.writerWG.Wait()
		close(writersDone)
	}()
	select {
	case <-writersDone:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
		// Past the deadline, writers get only as long as they keep making
		// progress: bounded queues drain in moments unless a writer is
		// wedged, and a wedged writer must not block shutdown forever.
		for {
			before := s.processedTotal()
			stop := false
			select {
			case <-writersDone:
				stop = true
			case <-time.After(50 * time.Millisecond):
				stop = s.processedTotal() == before
			}
			if stop {
				break
			}
		}
	}
	if s.dog != nil {
		s.dog.Stop()
	}
	return err
}

// processedTotal sums every session writer's progress counter.
func (s *Server) processedTotal() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, sess := range s.sessions {
		n += sess.processed.Load()
	}
	return n
}

// connWriter serializes frame writes to one connection: the session writer
// (ACKs) and the read loop (duplicate ACKs, NACKs, errors) both send.
type connWriter struct {
	c  net.Conn
	mu sync.Mutex
}

func (cw *connWriter) send(typ byte, payload []byte) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	// A write error means the client is gone; the read loop will notice
	// and detach, and the client re-syncs from HELLO_ACK on reconnect.
	_ = WriteFrame(cw.c, typ, payload)
}

func (cw *connWriter) sendErr(msg string) {
	cw.send(FrameErr, []byte(msg))
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connWG.Done()
	}()
	cw := &connWriter{c: conn}

	conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		s.cfg.Logf("ingest: %s: handshake read: %v", conn.RemoteAddr(), err)
		return
	}
	if typ != FrameHello {
		cw.sendErr(fmt.Sprintf("expected HELLO, got frame %#x", typ))
		return
	}
	version, ncores, id, src, err := ParseHello(payload)
	if err != nil {
		cw.sendErr(err.Error())
		return
	}
	if version != ProtoVersion {
		cw.send(FrameErr, FormatErr(ErrCategoryProtocol,
			fmt.Sprintf("protocol version %d not supported (server speaks %d)", version, ProtoVersion)))
		return
	}
	if !ValidSessionID(id) {
		cw.sendErr(fmt.Sprintf("invalid session id %q", id))
		return
	}
	if ncores <= 0 || ncores > streamfmt.MaxCores {
		cw.sendErr(fmt.Sprintf("implausible core count %d", ncores))
		return
	}
	src = source.CanonicalID(src)
	if _, err := source.Lookup(src); err != nil {
		cw.sendErr(fmt.Sprintf("unknown trace source %q", src))
		return
	}
	// Fleet routing: a session this node does not own is redirected to its
	// owner before any admission or session state is touched.
	if r := s.router(); r != nil {
		if owner, local := r.Route(id); !local {
			s.metrics.RedirectsSent.Add(1)
			cw.send(FrameRedirect, AppendRedirect(nil, owner))
			return
		}
	}

	sess, err := s.attach(id, ncores, src, cw)
	if err != nil {
		var busy *errBusy
		if errors.As(err, &busy) {
			// Admission refusal, not a protocol error: the client backs off
			// and redials.
			s.metrics.BusyRejections.Add(1)
			cw.send(FrameBusy, AppendBusy(nil, uint32(busy.retryAfter.Milliseconds())))
			return
		}
		s.metrics.Errors.Add(1)
		cw.sendErr(err.Error())
		return
	}
	defer sess.detach(cw)
	s.metrics.SessionsOpen.Add(1)
	defer s.metrics.SessionsOpen.Add(-1)
	resume := sess.ackedSeq()
	if resume > 0 {
		s.metrics.SessionsResumed.Add(1)
	}
	cw.send(FrameHelloAck, AppendHelloAck(nil, ProtoVersion, resume))
	s.cfg.Logf("ingest: %s: session %q attached (resume seq %d)", conn.RemoteAddr(), id, resume)

	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		typ, payload, err := ReadFrame(conn)
		if err != nil {
			s.cfg.Logf("ingest: %s: session %q read: %v", conn.RemoteAddr(), id, err)
			return
		}
		switch typ {
		case FrameProgram, FrameChunk:
			seq, data, err := ParseSeq(payload)
			if err != nil {
				cw.sendErr(err.Error())
				return
			}
			if !sess.submit(msg{typ: typ, seq: seq, data: data}, cw) {
				return
			}
		case FrameFin:
			seq, _, err := ParseSeq(payload)
			if err != nil {
				cw.sendErr(err.Error())
				return
			}
			if !sess.submit(msg{typ: FrameFin, seq: seq}, cw) {
				return
			}
		default:
			cw.sendErr(fmt.Sprintf("unexpected frame %#x", typ))
			return
		}
	}
}

// attach looks up or creates the session for id and binds the connection
// to it. One connection per session: a second concurrent HELLO is
// rejected (the client retries after the stale connection dies).
// Admission control happens here: past the concurrent-session cap or with
// the global memory budget exhausted the HELLO earns an errBusy, which the
// caller turns into a BUSY frame.
func (s *Server) attach(id string, ncores int, src string, cw *connWriter) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drain {
		return nil, errors.New("server is draining, not accepting sessions")
	}
	if s.cfg.MaxSessions > 0 && s.attached >= s.cfg.MaxSessions {
		return nil, &errBusy{"session cap reached", busyRetryAfter}
	}
	if b := s.cfg.MemoryBudgetBytes; b > 0 && s.queuedBytes.Load() >= b {
		return nil, &errBusy{"memory budget exhausted", busyRetryAfter}
	}
	sess := s.sessions[id]
	if sess == nil {
		// Full-disk gate, new sessions only: once a write has hit ENOSPC,
		// admitting more sessions just multiplies the failures, so they get
		// BUSY until space clears. Existing sessions still attach — their
		// next archive write is the probe that discovers the disk recovered
		// (and clears the gate), so a transient ENOSPC cannot lock the
		// server out forever.
		if s.diskFull.Load() {
			s.metrics.DiskFullRejections.Add(1)
			return nil, &errBusy{"disk full", busyRetryAfter}
		}
		var err error
		sess, err = s.openSession(id, ncores, src)
		if err != nil {
			if isStorageErr(err) {
				s.metrics.DiskFullRejections.Add(1)
				return nil, &errBusy{"session open failed on storage: " + err.Error(), busyRetryAfter}
			}
			return nil, err
		}
		s.sessions[id] = sess
		s.metrics.SessionsTotal.Add(1)
		s.writerWG.Add(1)
		go sess.runWriter()
		if s.dog != nil {
			s.dog.Register(watchdog.Probe{
				Name:     "ingest_writer:" + id,
				Progress: sess.processed.Load,
				Active:   func() bool { return len(sess.queue) > 0 || sess.working.Load() },
				OnStall: func(name string, progress uint64, stuck time.Duration) {
					s.metrics.StallsDetected.Add(1)
					sess.poison(fmt.Errorf("writer stalled for %v after %d frames", stuck.Round(time.Millisecond), progress))
				},
			})
		}
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.err != nil {
		return nil, fmt.Errorf("session %q is poisoned: %v", id, sess.err)
	}
	if sess.ncores != ncores {
		return nil, fmt.Errorf("session %q was opened with %d cores, HELLO says %d", id, sess.ncores, ncores)
	}
	if sess.srcID != src {
		return nil, fmt.Errorf("session %q was opened with trace source %q, HELLO says %q",
			id, sess.srcID, src)
	}
	if sess.conn != nil {
		return nil, fmt.Errorf("session %q already has an active connection", id)
	}
	sess.conn = cw
	// Re-sync the reader gate to the durable frontier on every bind: a
	// storage shed may have dropped a dequeued frame without archiving it,
	// leaving nextEnqueue pointing past a hole. The client resends from
	// the HELLO_ACK frontier; the writer-side ordering guard in archive()
	// de-duplicates anything that was still queued.
	sess.nextEnqueue = sess.lastAcked + 1
	s.attached++
	return sess, nil
}

// isStorageErr reports whether err is a disk-level failure — real or
// injected ENOSPC/EIO — as opposed to a validation or protocol error.
func isStorageErr(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EIO)
}

// msg is one queued unit of work for a session's writer: a data frame to
// archive, or a FIN marker (typ FrameFin) that asks for completion.
type msg struct {
	typ  byte
	seq  uint64
	data []byte
}

// session is the durable per-agent state: the archive being assembled, the
// acknowledged frontier, and the bounded queue between the connection
// reader and the archiving writer. It outlives any single connection.
type session struct {
	srv    *Server
	id     string
	dir    string
	ncores int
	srcID  string // trace-source backend (canonical ID); stamped into archive.meta
	queue  chan msg

	processed atomic.Uint64 // frames the writer has fully handled (watchdog progress)
	working   atomic.Bool   // writer is inside one frame (watchdog activity)

	fsys iofault.FS // storage surface (iofault.OS outside chaos runs)

	mu           sync.Mutex
	conn         *connWriter
	f            iofault.File
	lastAcked    uint64           // highest sequence archived and flushed
	nextEnqueue  uint64           // next sequence the reader will accept
	size         int64            // stream.jpt length covered by lastAcked
	cur          streamfmt.Cursor // seal check over the archived records
	haveProgram  bool
	done         bool // FIN acknowledged
	strikes      int  // circuit-breaker NACK count
	persistFails int  // consecutive ingest.state persist failures
	err          error
}

// ErrStatePersist is the typed poison cause for a session whose durable
// frontier repeatedly cannot be written: without ingest.state the
// persist-before-ACK contract is void, so the session is failed rather
// than silently continued on a best-effort log line.
var ErrStatePersist = errors.New("ingest: session state cannot be persisted")

// maxPersistFails is how many consecutive ingest.state failures a session
// survives (each one sheds the frame and suspends the connection) before
// it is poisoned with ErrStatePersist.
const maxPersistFails = 3

// errStaleFrame marks a queued frame the writer must drop silently: its
// sequence is ahead of the durable frontier because an earlier frame was
// shed on a storage fault after dequeue. The client re-syncs from
// HELLO_ACK on reconnect; NACKing here would race that resync.
var errStaleFrame = errors.New("stale queued frame after storage shed")

// storageError wraps a disk-level archive failure so runWriter sheds the
// frame and suspends the connection instead of poisoning the session —
// ENOSPC and transient EIO are the storage analogue of a full queue, not
// of corrupt input.
type storageError struct{ err error }

func (e *storageError) Error() string { return e.err.Error() }
func (e *storageError) Unwrap() error { return e.err }

// testHookArchive, when set by a test, runs in the writer goroutine before
// each frame is archived — a blocking hook simulates a hung writer. Atomic
// because a writer released after its test ends can race the cleanup reset.
var testHookArchive atomic.Pointer[func(sess *session, m msg)]

const stateFileName = "ingest.state"

// openSession creates or restores the session's archive directory. Called
// with srv.mu held (session creation is rare; the disk work is trivial).
// A restored session — its durable ingest.state survived a server restart,
// or in a fleet, the loss of the node that wrote it to the shared data dir
// — keeps the archive's own source stamp; a fresh one records src.
func (s *Server) openSession(id string, ncores int, src string) (*session, error) {
	dir := filepath.Join(s.cfg.DataDir, id)
	sess := &session{
		srv:    s,
		id:     id,
		dir:    dir,
		ncores: ncores,
		srcID:  src,
		fsys:   s.cfg.IOFault.FS("ingest:" + id),
		queue:  make(chan msg, s.cfg.QueueDepth),
	}
	if restored, err := sess.restore(); err != nil {
		return nil, fmt.Errorf("session %q: restoring %s: %w", id, dir, err)
	} else if restored {
		s.metrics.SessionsRestored.Add(1)
		return sess, nil
	}
	// Fresh session: chunked archive dir with an empty record stream. A
	// failure partway leaves a directory with no ingest.state, which
	// restore() would refuse forever — remove the partial dir so the
	// client's redial starts clean.
	fresh := func(err error) (*session, error) {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := jportal.InitChunkedArchiveDir(dir, src, sess.fsys); err != nil {
		return fresh(err)
	}
	f, err := sess.fsys.OpenFile(filepath.Join(dir, jportal.StreamFileName), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fresh(err)
	}
	hdr := streamfmt.AppendHeader(nil, ncores)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fresh(err)
	}
	sess.f = f
	sess.cur = streamfmt.NewCursor(ncores)
	sess.size = int64(len(hdr))
	sess.nextEnqueue = 1
	if err := sess.persistState(); err != nil {
		f.Close()
		return fresh(err)
	}
	return sess, nil
}

// restore resumes a session whose state file survived a server restart:
// the stream is truncated back to the last acknowledged byte (dropping any
// unacknowledged tail) so the client's resend from resumeSeq+1 recreates
// it exactly.
func (sess *session) restore() (bool, error) {
	raw, err := sess.fsys.ReadFile(filepath.Join(sess.dir, stateFileName))
	if os.IsNotExist(err) {
		if _, serr := os.Stat(sess.dir); serr == nil {
			return false, errors.New("directory exists but has no ingest state (not an ingest session?)")
		}
		return false, nil
	}
	if err != nil {
		return false, err
	}
	st, err := parseState(string(raw))
	if err != nil {
		// Torn or malformed state — a legacy non-atomic write interrupted by
		// a crash. The seq↔byte mapping is unrecoverable, so fall back to a
		// fresh upload of the session instead of failing it: the client
		// resends everything and the end-to-end seal CRC still guarantees
		// the re-pushed archive is byte-identical.
		sess.srv.metrics.StateFallbacks.Add(1)
		sess.srv.cfg.Logf("ingest: session %q: %v; restarting the upload from scratch", sess.id, err)
		if rerr := os.Remove(filepath.Join(sess.dir, stateFileName)); rerr != nil {
			return false, rerr
		}
		return false, nil
	}
	f, err := sess.fsys.OpenFile(filepath.Join(sess.dir, jportal.StreamFileName), os.O_WRONLY, 0o644)
	if err != nil {
		return false, err
	}
	if err := f.Truncate(st.Size); err != nil {
		f.Close()
		return false, err
	}
	if _, err := f.Seek(st.Size, 0); err != nil {
		f.Close()
		return false, err
	}
	sess.f = f
	sess.lastAcked = st.Seq
	sess.nextEnqueue = st.Seq + 1
	sess.size = st.Size
	sess.cur = streamfmt.Cursor{CRC: st.CRC, Sealed: st.Sealed}
	_, perr := os.Stat(filepath.Join(sess.dir, jportal.ProgramFileName))
	sess.haveProgram = perr == nil
	// The archive header is the durable source of truth for the backend:
	// the node resuming this session (possibly not the one that created it)
	// re-learns the source from disk, and attach rejects a HELLO whose
	// source disagrees.
	if sess.srcID, err = jportal.ArchiveSourceID(sess.dir); err != nil {
		f.Close()
		sess.f = nil
		return false, err
	}
	return true, nil
}

// SessionState is one session's durable frontier — the contents of its
// ingest.state file. Exported so the scrubber (internal/scrub) can verify
// an archive against the acknowledged prefix and rewrite the frontier
// after a repair.
type SessionState struct {
	// Seq is the highest acknowledged frame sequence.
	Seq uint64
	// Size is the stream.jpt length the acknowledged prefix covers.
	Size int64
	// CRC is the running IEEE checksum of that prefix (header + records,
	// pre-seal).
	CRC uint32
	// Sealed records whether the stream's verified seal has been archived.
	Sealed bool
}

const stateMagicLine = "jportal-ingest-state"

// StateFileName is the per-session durable-frontier file inside a session
// directory.
const StateFileName = stateFileName

func parseState(raw string) (SessionState, error) {
	var st SessionState
	lines := strings.Split(strings.TrimSpace(raw), "\n")
	if len(lines) < 4 || strings.TrimSpace(lines[0]) != stateMagicLine {
		return st, errors.New("malformed ingest state file")
	}
	for _, ln := range lines[1:] {
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			continue
		}
		v = strings.TrimSpace(v)
		var err error
		switch strings.TrimSpace(k) {
		case "seq":
			st.Seq, err = strconv.ParseUint(v, 10, 64)
		case "bytes":
			st.Size, err = strconv.ParseInt(v, 10, 64)
		case "crc":
			var c uint64
			c, err = strconv.ParseUint(v, 10, 32)
			st.CRC = uint32(c)
		case "sealed":
			st.Sealed, err = strconv.ParseBool(v)
		}
		if err != nil {
			return st, fmt.Errorf("bad ingest state %s: %v", strings.TrimSpace(k), err)
		}
	}
	if st.Size < streamfmt.HeaderLen {
		return st, fmt.Errorf("ingest state covers %d bytes, less than a stream header", st.Size)
	}
	return st, nil
}

func stateBody(st SessionState) string {
	return fmt.Sprintf("%s\nseq: %d\nbytes: %d\ncrc: %d\nsealed: %v\n",
		stateMagicLine, st.Seq, st.Size, st.CRC, st.Sealed)
}

// ReadSessionState reads and parses a session directory's ingest.state.
// Missing-file errors pass through unwrapped (os.IsNotExist works).
func ReadSessionState(dir string) (SessionState, error) {
	raw, err := os.ReadFile(filepath.Join(dir, stateFileName))
	if err != nil {
		return SessionState{}, err
	}
	return parseState(string(raw))
}

// WriteSessionState crash-atomically replaces a session directory's
// ingest.state — the scrubber uses it to commit a repaired frontier.
func WriteSessionState(dir string, st SessionState) error {
	return fsatomic.WriteFile(iofault.OS, filepath.Join(dir, stateFileName), []byte(stateBody(st)), 0o644)
}

// persistState records the acknowledged frontier, crash-atomically (temp +
// fsync + rename): a crash mid-write leaves the previous state file intact,
// never a torn one. Called with sess.mu held (or before the session is
// shared). A restarted server resumes from here.
func (sess *session) persistState() error {
	st := SessionState{Seq: sess.lastAcked, Size: sess.size, CRC: sess.cur.CRC, Sealed: sess.cur.Sealed}
	return fsatomic.WriteFile(sess.fsys, filepath.Join(sess.dir, stateFileName), []byte(stateBody(st)), 0o644)
}

func (sess *session) ackedSeq() uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.lastAcked
}

func (sess *session) detach(cw *connWriter) {
	// srv.mu before sess.mu, the same order attach takes them.
	sess.srv.mu.Lock()
	sess.mu.Lock()
	if sess.conn == cw {
		sess.conn = nil
		sess.srv.attached--
	}
	sess.mu.Unlock()
	sess.srv.mu.Unlock()
}

// shed NACKs one rejected data frame (asking the client to resend wantSeq
// after backoff) and applies a circuit-breaker strike. The return value
// says whether the connection should stay open.
func (sess *session) shed(cw *connWriter, wantSeq uint64) bool {
	sess.srv.metrics.Nacks.Add(1)
	cw.send(FrameNack, AppendSeq(nil, wantSeq))
	return sess.strike()
}

// strike applies one circuit-breaker strike; past the budget the session
// is poisoned. The return value says whether the session is still alive.
func (sess *session) strike() bool {
	n := sess.srv.cfg.BreakerNacks
	if n <= 0 {
		return true
	}
	sess.mu.Lock()
	sess.strikes++
	tripped := sess.strikes == n
	sess.mu.Unlock()
	if !tripped {
		return true
	}
	// The session has burned its rejection budget: cut it off before it
	// consumes more queue memory on frames that keep bouncing.
	sess.srv.metrics.BreakerTrips.Add(1)
	sess.poison(fmt.Errorf("circuit breaker: %d frames rejected", n))
	return false
}

// submit applies the sequencing rules to one inbound frame and enqueues it
// for the writer. The return value says whether the connection should stay
// open.
func (sess *session) submit(m msg, cw *connWriter) bool {
	sess.mu.Lock()
	if sess.err != nil {
		sess.mu.Unlock()
		cw.sendErr(fmt.Sprintf("session %q is poisoned: %v", sess.id, sess.err))
		return false
	}
	if m.typ != FrameFin {
		// A bind resets nextEnqueue to the durable frontier while frames of
		// the previous connection may still be queued; once the writer
		// archives them the frontier overtakes the gate. Frames at or below
		// the frontier are never needed again, so the gate follows it —
		// otherwise every later frame reads as a gap and is NACKed forever.
		sess.nextEnqueue = max(sess.nextEnqueue, sess.lastAcked+1)
		switch {
		case m.seq <= sess.lastAcked:
			// Re-delivery of something already archived (the client lost
			// our ACK): idempotent, just re-ACK the frontier.
			acked := sess.lastAcked
			sess.mu.Unlock()
			sess.srv.metrics.Duplicates.Add(1)
			cw.send(FrameAck, AppendSeq(nil, acked))
			return true
		case m.seq < sess.nextEnqueue:
			// Already queued but not yet archived; the ACK is coming.
			sess.mu.Unlock()
			sess.srv.metrics.Duplicates.Add(1)
			return true
		case m.seq > sess.nextEnqueue:
			// Gap: frames were shed (memory budget) or reordered.
			want := sess.nextEnqueue
			sess.mu.Unlock()
			return sess.shed(cw, want)
		}
	}
	sess.mu.Unlock()

	// Global memory budget: a frame that would push the queued-but-unarchived
	// payload past the budget is shed with a NACK — blocking here would hold
	// the budget overrun in the TCP buffers instead.
	if b := sess.srv.cfg.MemoryBudgetBytes; m.typ != FrameFin && b > 0 &&
		sess.srv.queuedBytes.Load()+int64(len(m.data)) > b {
		sess.srv.metrics.FramesShed.Add(1)
		return sess.shed(cw, m.seq)
	}

	// Stop reading until there is room — TCP pushes the backpressure to
	// the client.
	select {
	case sess.queue <- m:
		sess.srv.queuedBytes.Add(int64(len(m.data)))
	case <-sess.srv.force:
		return false
	}
	if m.typ != FrameFin {
		sess.mu.Lock()
		sess.nextEnqueue = m.seq + 1
		sess.mu.Unlock()
	}
	return true
}

// runWriter is the session's archiving goroutine: it drains the bounded
// queue in order, appends to the archive, persists the acknowledged
// frontier and ACKs. It exits when the server closes the queue at
// shutdown, after archiving everything already accepted.
func (sess *session) runWriter() {
	defer sess.srv.writerWG.Done()
	if sess.srv.dog != nil {
		defer sess.srv.dog.Unregister("ingest_writer:" + sess.id)
	}
	for m := range sess.queue {
		sess.working.Store(true)
		if h := testHookArchive.Load(); h != nil {
			(*h)(sess, m)
		}
		if m.typ == FrameFin {
			sess.finish(m.seq)
		} else if err := sess.archive(m); err != nil {
			var storage *storageError
			switch {
			case errors.Is(err, errStaleFrame):
				// Dropped silently: an earlier frame in this queue was shed
				// on a storage fault, so this one is ahead of the durable
				// frontier. The client re-syncs from HELLO_ACK on reconnect.
			case errors.As(err, &storage):
				sess.storageShed(err)
			default:
				sess.srv.quarantineErr(err)
				sess.rejectAndPoison(m, err)
			}
		}
		sess.srv.queuedBytes.Add(-int64(len(m.data)))
		sess.processed.Add(1)
		sess.working.Store(false)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.f != nil {
		sess.f.Close()
		sess.f = nil
	}
	if !sess.done {
		sess.srv.metrics.SessionsDrained.Add(1)
	}
}

// storageShed is the graceful-degradation path for a disk-level archive
// failure: the frame is dropped (never acknowledged — the durable frontier
// did not move), the breaker takes a strike, and the connection is closed
// so the client backs off, redials, and resends from the frontier against
// a disk that may have recovered. ENOSPC additionally arms the full-disk
// admission gate.
func (sess *session) storageShed(err error) {
	sess.srv.metrics.StorageSheds.Add(1)
	if errors.Is(err, syscall.ENOSPC) {
		sess.srv.metrics.EnospcSheds.Add(1)
		sess.srv.diskFull.Store(true)
	}
	sess.srv.cfg.Logf("ingest: session %q: storage fault, shedding frame: %v", sess.id, err)
	if !sess.strike() {
		return // poisoned by the breaker; poison already closed the conn
	}
	sess.mu.Lock()
	conn := sess.conn
	sess.mu.Unlock()
	if conn != nil {
		conn.c.Close()
	}
}

// rollback discards an un-acknowledged partial append (a torn write's
// landed prefix) by truncating the stream back to the committed frontier.
// A rollback that itself fails is fatal: the file no longer matches the
// durable state, so the session must not continue.
func (sess *session) rollback(f iofault.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return err
	}
	_, err := f.Seek(size, 0)
	return err
}

// archive validates and appends one data frame, then advances the
// acknowledged frontier.
func (sess *session) archive(m msg) error {
	// Writer-side ordering guard: after a storage shed the queue can hold
	// frames past the hole, and after a reconnect it can hold duplicates
	// of frames already archived. The durable frontier arbitrates both.
	sess.mu.Lock()
	switch {
	case m.seq <= sess.lastAcked:
		acked := sess.lastAcked
		conn := sess.conn
		sess.mu.Unlock()
		sess.srv.metrics.Duplicates.Add(1)
		if conn != nil {
			conn.send(FrameAck, AppendSeq(nil, acked))
		}
		return nil
	case m.seq != sess.lastAcked+1:
		sess.mu.Unlock()
		return errStaleFrame
	}
	// Pre-frame frontier, for rolling the frame back if its state persist
	// fails after the bytes were appended.
	preSeq, preSize, preCur := sess.lastAcked, sess.size, sess.cur
	sess.mu.Unlock()

	switch m.typ {
	case FrameProgram:
		if err := jportal.WriteArchiveProgram(sess.dir, m.data, sess.fsys); err != nil {
			if isStorageErr(err) {
				return &storageError{err}
			}
			return err
		}
		sess.mu.Lock()
		sess.haveProgram = true
		sess.mu.Unlock()
	case FrameChunk:
		// Validate before touching the file: the payload must be whole
		// records that pass the session's seal check end to end.
		cur := preCur
		for rem := m.data; len(rem) > 0; {
			n, err := cur.Step(rem)
			if err != nil {
				return fmt.Errorf("chunk seq %d: %w", m.seq, err)
			}
			rem = rem[n:]
		}
		sess.mu.Lock()
		f := sess.f
		size := sess.size
		sess.mu.Unlock()
		if f == nil {
			return errors.New("session archive already closed")
		}
		if _, err := f.Write(m.data); err != nil {
			if !isStorageErr(err) {
				return err
			}
			// A torn write may have landed a prefix; roll the file back to
			// the committed frontier so a resend appends cleanly.
			if rerr := sess.rollback(f, size); rerr != nil {
				return fmt.Errorf("storage fault (%v), then rollback failed: %w", err, rerr)
			}
			return &storageError{err}
		}
		sess.mu.Lock()
		sess.size += int64(len(m.data))
		sess.cur = cur
		if cur.Sealed && !preCur.Sealed {
			sess.srv.metrics.SessionsSealed.Add(1)
		}
		sess.mu.Unlock()
	default:
		return fmt.Errorf("unexpected frame %#x in session queue", m.typ)
	}

	sess.mu.Lock()
	sess.lastAcked = m.seq
	err := sess.persistState()
	if err != nil {
		// Persist-before-ACK must hold: an acknowledged frame whose state
		// never landed would be lost by the next restore. Roll the whole
		// frame back — frontier and, for a chunk, the appended bytes — and
		// shed it instead; the client's resend replays it cleanly.
		sess.lastAcked, sess.size, sess.cur = preSeq, preSize, preCur
		var rerr error
		if m.typ == FrameChunk {
			rerr = sess.rollback(sess.f, preSize)
		}
		sess.persistFails++
		fails := sess.persistFails
		sess.mu.Unlock()
		sess.srv.metrics.StatePersistErrors.Add(1)
		if rerr != nil {
			return fmt.Errorf("%w: %v; rollback failed: %v", ErrStatePersist, err, rerr)
		}
		if fails >= maxPersistFails {
			return fmt.Errorf("%w: %d consecutive failures, last: %v", ErrStatePersist, fails, err)
		}
		return &storageError{fmt.Errorf("persisting ingest.state: %w", err)}
	}
	conn := sess.conn
	sess.persistFails = 0
	sess.mu.Unlock()
	sess.srv.diskFull.Store(false)
	sess.srv.metrics.ChunksIngested.Add(1)
	sess.srv.metrics.BytesIngested.Add(int64(len(m.data)))
	if conn != nil {
		conn.send(FrameAck, AppendSeq(nil, m.seq))
	}
	return nil
}

// finish handles a FIN marker: everything queued before it has been
// archived, so completeness is decided by the acknowledged frontier.
func (sess *session) finish(finSeq uint64) {
	sess.mu.Lock()
	conn := sess.conn
	complete := sess.lastAcked == finSeq && sess.cur.Sealed && sess.haveProgram
	acked := sess.lastAcked
	sealed := sess.cur.Sealed
	if complete {
		sess.done = true
	}
	sess.mu.Unlock()
	if conn == nil {
		return
	}
	switch {
	case complete:
		conn.send(FrameFinAck, AppendSeq(nil, finSeq))
	case !sealed && acked == finSeq:
		// Everything arrived but no seal record: the client ended the
		// stream without sealing — a protocol violation, not a retry.
		conn.sendErr("FIN before the stream's seal record")
	default:
		// Frames are missing (shed under the memory budget, or the
		// client ran ahead): ask for a resend from the frontier.
		sess.srv.metrics.Nacks.Add(1)
		conn.send(FrameNack, AppendSeq(nil, acked+1))
	}
}

// quarantineErr classifies a session-poisoning archive error into the
// typed fault taxonomy and mirrors it to the registry, so a rejected upload
// is visible on /metrics with the same vocabulary the analysis ledger uses.
func (s *Server) quarantineErr(err error) {
	s.metrics.SessionsQuarantined.Add(1)
	switch {
	case errors.Is(err, streamfmt.ErrCorrupt):
		s.metrics.CorruptRecords.Add(1)
		s.cfg.Registry.Add(fault.QuarantineCounterName(fault.ReasonCorruptRecord), 1)
	case errors.Is(err, streamfmt.ErrShort):
		s.metrics.TornRecords.Add(1)
		s.cfg.Registry.Add(fault.QuarantineCounterName(fault.ReasonTornRecord), 1)
	}
}

// rejectAndPoison NACKs the frame that failed validation — telling the
// client the sequence was not accepted — then poisons the session. The
// blast radius is exactly this session id: sibling sessions on the same
// server keep archiving.
func (sess *session) rejectAndPoison(m msg, err error) {
	sess.mu.Lock()
	conn := sess.conn
	sess.mu.Unlock()
	if conn != nil && m.typ != FrameFin {
		sess.srv.metrics.Nacks.Add(1)
		conn.send(FrameNack, AppendSeq(nil, m.seq))
	}
	sess.poison(err)
}

// poison records a fatal session error, reports it to the attached client,
// and refuses all further frames for the id until the server restarts.
func (sess *session) poison(err error) {
	sess.mu.Lock()
	if sess.err == nil {
		sess.err = err
	}
	conn := sess.conn
	sess.mu.Unlock()
	sess.srv.metrics.Errors.Add(1)
	sess.srv.cfg.Logf("ingest: session %q poisoned: %v", sess.id, err)
	if conn != nil {
		conn.sendErr(fmt.Sprintf("session %q: %v", sess.id, err))
		conn.c.Close()
	}
}
