// Package client is the agent side of jportal's trace-ingest protocol
// (internal/ingest): it pushes the records of a chunked run archive — or a
// live run's streaming export — to a jportal serve instance, surviving
// disconnects, server restarts and backpressure.
//
// Reliability model: every data frame carries a sequence number and stays
// buffered until the server's cumulative ACK covers it. On any connection
// failure the client redials with exponential backoff plus jitter, learns
// the server's acknowledged frontier from HELLO_ACK, drops everything at
// or below it, and retransmits the rest. A NACK (bounded-queue overflow
// under the server's NACK policy, or a sequence gap) triggers the same
// retransmission after a backoff without dropping the connection. Delivery
// is exactly-once on the archive: the server drops duplicate sequences.
// A BUSY handshake answer (the server's admission control refusing the
// session for load reasons) is retried after the server-suggested delay
// plus jitter rather than treated as an error.
//
// Fleet awareness (protocol 3): a REDIRECT handshake answer — the dialed
// process does not own the session — is followed transparently, up to a
// small hop bound, so Options.Addr may name a coordinator or any fleet
// node. Every reconnect starts over from Options.Addr: after a node loss
// the coordinator re-routes the session to the surviving owner, and the
// upload resumes from that node's durable frontier.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"jportal/internal/ingest"
	"jportal/internal/metrics"
)

// Options configures a Pusher.
type Options struct {
	// Addr is the jportal serve address (host:port).
	Addr string
	// Addrs optionally lists several equivalent entry points — typically
	// the fleet's coordinator replicas. The pusher dials one at a time
	// and rotates to the next on any connect failure (including a
	// standby coordinator's BUSY), so a coordinator failover costs one
	// failed attempt, not the upload. When set, Addr defaults to
	// Addrs[0] and is used only for log/error labels.
	Addrs []string
	// SessionID names the upload; the server archives it under this name
	// and resumes it across reconnects. Must satisfy ingest.ValidSessionID.
	SessionID string
	// SourceID names the trace-source backend the records were collected
	// by ("" or source.DefaultID = Intel PT). Sent in HELLO (protocol 3+)
	// so the server stamps the session archive's header with it —
	// non-default archives stay analyzable after the network hop and any
	// fleet handoff.
	SourceID string
	// MaxChunkBytes bounds the record payload of one CHUNK frame
	// (default 64KiB).
	MaxChunkBytes int
	// WindowBytes bounds the unacknowledged payload in flight; Send blocks
	// beyond it, so a slow or NACKing server backpressures the producer
	// (default 1MiB).
	WindowBytes int
	// MaxAttempts is the dial attempt budget of one (re)connect
	// (default 8).
	MaxAttempts int
	// Backoff is the first retry delay; it doubles per attempt with up to
	// 50% added jitter, capped at MaxBackoff (defaults 50ms / 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// RetryBudget bounds the connect-level retries of the whole upload —
	// failed dials, BUSY refusals, REDIRECT hops and reconnects all draw
	// from one pool — so a partitioned fleet cannot turn one pusher into
	// a retry storm. MaxAttempts bounds one reconnect; this bounds their
	// sum. 0 means max(256, 4×MaxAttempts); negative means unlimited.
	// Exhaustion is terminal: the upload fails with a *BudgetError and
	// the client_retry_budget_exhausted counter increments.
	RetryBudget int
	// Dial overrides the transport (tests inject failing connections).
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Logf, when set, receives one line per reconnect/backoff event.
	Logf func(format string, args ...any)
}

func (o *Options) fill() error {
	if len(o.Addrs) == 0 && o.Addr != "" {
		o.Addrs = []string{o.Addr}
	}
	if len(o.Addrs) == 0 {
		return errors.New("ingest client: Options.Addr is required")
	}
	for _, a := range o.Addrs {
		if a == "" {
			return errors.New("ingest client: empty address in Options.Addrs")
		}
	}
	if o.Addr == "" {
		o.Addr = o.Addrs[0]
	}
	if !ingest.ValidSessionID(o.SessionID) {
		return fmt.Errorf("ingest client: invalid session id %q", o.SessionID)
	}
	if o.MaxChunkBytes <= 0 {
		o.MaxChunkBytes = 64 << 10
	}
	if o.WindowBytes <= 0 {
		o.WindowBytes = 1 << 20
	}
	if o.WindowBytes < o.MaxChunkBytes {
		o.WindowBytes = o.MaxChunkBytes
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 4 * o.MaxAttempts
		if o.RetryBudget < 256 {
			o.RetryBudget = 256
		}
	}
	if o.Dial == nil {
		o.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// BusyError reports that the server refused admission for load reasons
// (concurrent-session cap or memory budget) and suggested a retry delay.
// The pusher handles it internally — redialing after RetryAfter plus
// jitter — so callers only see it if every attempt stayed busy.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("server busy, retry after %v", e.RetryAfter)
}

// ServerError is a handshake rejection surfaced as a typed error: an ERR
// frame's payload, or a client-side verdict that carries the same typed
// categories (redirect-hop exhaustion). Category is the machine-readable
// classification (ingest.ErrCategoryProtocol, ingest.ErrCategoryRedirectLoop)
// or "" for free-form errors.
type ServerError struct {
	Category string
	Message  string
}

func (e *ServerError) Error() string {
	if e.Category == "" {
		return fmt.Sprintf("server rejected session: %s", e.Message)
	}
	return fmt.Sprintf("server rejected session (%s): %s", e.Category, e.Message)
}

// Terminal reports whether retrying the same connect can ever succeed.
// Protocol-version mismatches cannot (same address, same protocol), and a
// redirect loop means the fleet's views of the session's owner disagree —
// more hops from the same starting point walk the same loop, so the
// pusher fails fast instead of burning its retry budget.
func (e *ServerError) Terminal() bool {
	switch e.Category {
	case ingest.ErrCategoryProtocol, ingest.ErrCategoryRedirectLoop:
		return true
	}
	return false
}

// BudgetError reports that the upload's connect-level retry budget —
// shared across dial failures, BUSY refusals, REDIRECT hops and
// reconnects (Options.RetryBudget) — ran out. Last is the failure that
// spent the final unit.
type BudgetError struct {
	Budget int
	Last   error
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("retry budget exhausted after %d connect-level retries (last: %v)", e.Budget, e.Last)
}

func (e *BudgetError) Unwrap() error { return e.Last }

// redirectError is dialHelloOnce's internal signal that the dialed process
// does not own the session; the dial loop follows Addr.
type redirectError struct {
	Addr string
}

func (e *redirectError) Error() string {
	return fmt.Sprintf("session is served by %s", e.Addr)
}

// maxRedirectHops bounds a single handshake's redirect chain. Two is the
// steady state (coordinator -> owner); the headroom covers a ring update
// racing the dial. Past the bound the connect attempt fails and the
// backoff loop starts over from Options.Addr with a fresher ring.
const maxRedirectHops = 4

// pframe is one unacknowledged data frame.
type pframe struct {
	typ  byte
	seq  uint64
	data []byte
}

// Pusher is a reliable, resumable upload of one session's record stream.
// It is safe for use by a single producer goroutine (Send/Finish/Close);
// acknowledgement handling runs internally.
type Pusher struct {
	opts   Options
	ncores int
	ctx    context.Context
	// stopWatch unregisters the ctx cancellation watcher; Close and a
	// successful Finish call it so a pusher never outlives its upload.
	stopWatch func() bool

	mu           sync.Mutex
	cond         *sync.Cond
	conn         net.Conn
	gen          int // bumped per successful (re)connect
	connDead     bool
	reconnecting bool
	pending      []pframe
	pendingBytes int
	nextSeq      uint64
	acked        uint64
	finAcked     uint64
	finSent      bool
	needRetx     bool
	fatal        error
	closed       bool

	// Stats, guarded by mu.
	reconnects int
	nacks      int
	redirects  int
	resumeSeq  uint64 // frontier reported by the first HELLO_ACK

	// Retry-budget accounting, guarded by mu. addrIdx walks Options.Addrs;
	// spent counts connect-level retries against Options.RetryBudget.
	addrIdx int
	spent   int
}

// Dial connects to the server, performs the HELLO handshake, and returns a
// pusher whose acknowledged frontier reflects any previous upload of the
// same session id. ctx bounds the whole upload: when it is cancelled the
// pusher fails fast with ctx's error.
func Dial(ctx context.Context, opts Options, ncores int) (*Pusher, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if ncores <= 0 {
		return nil, fmt.Errorf("ingest client: implausible core count %d", ncores)
	}
	p := &Pusher{opts: opts, ncores: ncores, ctx: ctx, nextSeq: 1}
	p.cond = sync.NewCond(&p.mu)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.reconnectLocked(); err != nil {
		return nil, err
	}
	p.resumeSeq = p.acked
	p.stopWatch = context.AfterFunc(ctx, func() {
		p.mu.Lock()
		if p.fatal == nil && !p.closed {
			p.fatal = ctx.Err()
			if p.conn != nil {
				p.conn.Close()
			}
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	return p, nil
}

// ResumeSeq returns the acknowledged sequence the server reported at the
// first handshake — non-zero when this upload resumed an earlier one.
func (p *Pusher) ResumeSeq() uint64 { return p.resumeSeq }

// Reconnects returns how many times the connection was re-established.
func (p *Pusher) Reconnects() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reconnects
}

// Nacks returns how many NACKs the server sent this upload.
func (p *Pusher) Nacks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nacks
}

// Redirects returns how many REDIRECT frames this upload followed —
// non-zero when Options.Addr named a coordinator or a non-owning fleet
// node.
func (p *Pusher) Redirects() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.redirects
}

// Acked returns the server's acknowledged frontier.
func (p *Pusher) Acked() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acked
}

// BudgetSpent returns how many connect-level retries the upload has drawn
// from its retry budget so far.
func (p *Pusher) BudgetSpent() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spent
}

// spend draws n connect-level retries from the budget, reporting false —
// and counting the exhaustion exactly once — when the budget is gone.
func (p *Pusher) spend(n int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spent += n
	if p.opts.RetryBudget < 0 || p.spent <= p.opts.RetryBudget {
		return true
	}
	if p.spent-n <= p.opts.RetryBudget { // first crossing
		metrics.Default.Add(metrics.CounterClientRetryBudget, 1)
	}
	return false
}

// rotate advances to the next configured entry-point address.
func (p *Pusher) rotate() {
	p.mu.Lock()
	p.addrIdx = (p.addrIdx + 1) % len(p.opts.Addrs)
	p.mu.Unlock()
}

// entryAddr is the entry point the next connect starts from.
func (p *Pusher) entryAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.opts.Addrs[p.addrIdx]
}

// backoffDelay computes the attempt'th retry delay: exponential with up to
// 50% jitter, capped.
func (p *Pusher) backoffDelay(attempt int) time.Duration {
	d := p.opts.Backoff << attempt
	if d > p.opts.MaxBackoff || d <= 0 {
		d = p.opts.MaxBackoff
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// reconnectLocked (re)establishes the connection and retransmits the
// unacknowledged tail. Called with mu held; releases it while dialing.
// Only one goroutine reconnects at a time; others wait on cond.
func (p *Pusher) reconnectLocked() error {
	for p.reconnecting {
		p.cond.Wait()
	}
	if p.fatal != nil {
		return p.fatal
	}
	if p.conn != nil && !p.connDead {
		return nil
	}
	p.reconnecting = true
	redial := false
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
		p.reconnects++
		redial = true
	}
	p.mu.Unlock()

	var (
		conn      net.Conn
		resumeSeq uint64
		err       error
	)
	budgetDead := redial && !p.spend(1)
	if budgetDead {
		err = &BudgetError{Budget: p.opts.RetryBudget, Last: errors.New("connection lost")}
	}
	for attempt := 0; !budgetDead && attempt < p.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay := p.backoffDelay(attempt - 1)
			var busy *BusyError
			if errors.As(err, &busy) && busy.RetryAfter > 0 {
				// The server told us when to come back; add up to 50% jitter
				// so a herd of refused agents does not redial in lockstep.
				delay = busy.RetryAfter + time.Duration(rand.Int63n(int64(busy.RetryAfter)/2+1))
			}
			p.opts.Logf("ingest client: %s: retrying in %v (attempt %d/%d): %v",
				p.opts.Addr, delay, attempt+1, p.opts.MaxAttempts, err)
			select {
			case <-p.ctx.Done():
				err = p.ctx.Err()
				attempt = p.opts.MaxAttempts // exhaust
			case <-time.After(delay):
			}
			if p.ctx.Err() != nil {
				break
			}
		}
		conn, resumeSeq, err = p.dialHello()
		if err == nil {
			break
		}
		var se *ServerError
		if errors.As(err, &se) && se.Terminal() {
			break // terminal: the same dial can never succeed
		}
		var be *BudgetError
		if errors.As(err, &be) {
			break // the whole upload's budget is gone, not just this attempt's
		}
		// The next attempt starts from the next configured entry point (a
		// standby coordinator answering BUSY rotates us toward the leader)
		// and draws one unit from the shared retry budget.
		p.rotate()
		if !p.spend(1) {
			err = &BudgetError{Budget: p.opts.RetryBudget, Last: err}
			break
		}
	}

	p.mu.Lock()
	p.reconnecting = false
	defer p.cond.Broadcast()
	if err != nil {
		if p.fatal == nil {
			p.fatal = fmt.Errorf("ingest client: %s: %w", p.opts.Addr, err)
		}
		return p.fatal
	}
	if p.fatal != nil { // cancelled while dialing
		conn.Close()
		return p.fatal
	}
	p.conn = conn
	p.connDead = false
	p.needRetx = false
	p.finSent = false
	p.gen++
	if resumeSeq > p.acked {
		p.acked = resumeSeq
	}
	p.pruneLocked()
	go p.readAcks(conn, p.gen)
	return p.resendPendingLocked()
}

// dialHello performs one connect: dial the current entry point, exchange
// HELLO/HELLO_ACK, and follow any REDIRECT chain to the session's owning
// node. Each call restarts from the entry point so a re-routed session
// (node loss, rebalance) lands on the current owner, not a cached one.
// Hop exhaustion is a typed terminal ServerError carrying the hop trail;
// every followed hop draws from the shared retry budget.
func (p *Pusher) dialHello() (net.Conn, uint64, error) {
	addr := p.entryAddr()
	trail := addr
	for hop := 0; ; hop++ {
		conn, resumeSeq, err := p.dialHelloOnce(addr)
		var redir *redirectError
		if !errors.As(err, &redir) {
			return conn, resumeSeq, err
		}
		trail += " -> " + redir.Addr
		if hop >= maxRedirectHops {
			return nil, 0, &ServerError{
				Category: ingest.ErrCategoryRedirectLoop,
				Message:  fmt.Sprintf("%d hops without reaching the session owner: %s", hop+1, trail),
			}
		}
		if !p.spend(1) {
			return nil, 0, &BudgetError{Budget: p.opts.RetryBudget, Last: redir}
		}
		p.mu.Lock()
		p.redirects++
		p.mu.Unlock()
		p.opts.Logf("ingest client: %s: redirected to %s", addr, redir.Addr)
		addr = redir.Addr
	}
}

// dialHelloOnce performs one dial + HELLO handshake against one address.
func (p *Pusher) dialHelloOnce(addr string) (net.Conn, uint64, error) {
	conn, err := p.opts.Dial(p.ctx, addr)
	if err != nil {
		return nil, 0, err
	}
	hello := ingest.AppendHelloSource(nil, ingest.ProtoVersion, p.ncores, p.opts.SessionID, p.opts.SourceID)
	if err := ingest.WriteFrame(conn, ingest.FrameHello, hello); err != nil {
		conn.Close()
		return nil, 0, err
	}
	typ, payload, err := ingest.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	switch typ {
	case ingest.FrameHelloAck:
		version, resumeSeq, err := ingest.ParseHelloAck(payload)
		if err != nil {
			conn.Close()
			return nil, 0, err
		}
		if version != ingest.ProtoVersion {
			conn.Close()
			return nil, 0, fmt.Errorf("server speaks protocol %d, client speaks %d", version, ingest.ProtoVersion)
		}
		return conn, resumeSeq, nil
	case ingest.FrameBusy:
		conn.Close()
		ms, perr := ingest.ParseBusy(payload)
		if perr != nil {
			return nil, 0, perr
		}
		return nil, 0, &BusyError{RetryAfter: time.Duration(ms) * time.Millisecond}
	case ingest.FrameRedirect:
		conn.Close()
		target, perr := ingest.ParseRedirect(payload)
		if perr != nil {
			return nil, 0, perr
		}
		return nil, 0, &redirectError{Addr: target}
	case ingest.FrameErr:
		conn.Close()
		category, msg := ingest.SplitErr(payload)
		return nil, 0, &ServerError{Category: category, Message: msg}
	default:
		conn.Close()
		return nil, 0, fmt.Errorf("unexpected handshake frame %#x", typ)
	}
}

// readAcks consumes server frames for one connection generation.
func (p *Pusher) readAcks(conn net.Conn, gen int) {
	for {
		typ, payload, err := ingest.ReadFrame(conn)
		p.mu.Lock()
		if p.gen != gen || p.closed {
			p.mu.Unlock()
			return
		}
		if err != nil {
			p.connDead = true
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		switch typ {
		case ingest.FrameAck:
			if seq, _, perr := ingest.ParseSeq(payload); perr == nil && seq > p.acked {
				p.acked = seq
				p.pruneLocked()
			}
		case ingest.FrameNack:
			p.nacks++
			p.needRetx = true
			p.finSent = false
		case ingest.FrameFinAck:
			if seq, _, perr := ingest.ParseSeq(payload); perr == nil && seq > p.finAcked {
				p.finAcked = seq
			}
		case ingest.FrameErr:
			if p.fatal == nil {
				p.fatal = fmt.Errorf("ingest client: server error: %s", payload)
			}
			p.connDead = true
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// pruneLocked drops pending frames covered by the acknowledged frontier.
func (p *Pusher) pruneLocked() {
	keep := p.pending[:0]
	bytes := 0
	for _, f := range p.pending {
		if f.seq > p.acked {
			keep = append(keep, f)
			bytes += len(f.data)
		}
	}
	p.pending = keep
	p.pendingBytes = bytes
}

// writeFrameLocked writes one data frame on the current connection,
// marking it dead on failure (the next service pass reconnects).
func (p *Pusher) writeFrameLocked(f pframe) bool {
	if p.conn == nil || p.connDead {
		return false
	}
	payload := ingest.AppendSeq(make([]byte, 0, 8+len(f.data)), f.seq)
	payload = append(payload, f.data...)
	if err := ingest.WriteFrame(p.conn, f.typ, payload); err != nil {
		p.connDead = true
		return false
	}
	return true
}

// resendPendingLocked retransmits every unacknowledged frame in order.
func (p *Pusher) resendPendingLocked() error {
	for _, f := range p.pending {
		if !p.writeFrameLocked(f) {
			return nil // dead again; the next service pass retries
		}
	}
	return nil
}

// service makes one unit of progress while a caller waits: reconnect a
// dead connection, honor a NACK with a backed-off retransmission, or block
// until an acknowledgement (or failure) arrives. Called with mu held.
func (p *Pusher) service() error {
	if p.fatal != nil {
		return p.fatal
	}
	switch {
	case p.conn == nil || p.connDead:
		return p.reconnectLocked()
	case p.needRetx:
		p.needRetx = false
		delay := p.backoffDelay(0)
		p.opts.Logf("ingest client: %s: NACK, retransmitting %d frame(s) in %v",
			p.opts.Addr, len(p.pending), delay)
		p.mu.Unlock()
		select {
		case <-p.ctx.Done():
		case <-time.After(delay):
		}
		p.mu.Lock()
		if p.fatal != nil {
			return p.fatal
		}
		return p.resendPendingLocked()
	default:
		p.cond.Wait()
		return p.fatal
	}
}

// Send transmits one data frame (ingest.FrameProgram or ingest.FrameChunk)
// and returns its sequence number. The payload is copied; Send blocks while
// the in-flight window is full. Frames whose sequence the server has
// already acknowledged (an upload resumed from an earlier push of the same
// archive) are skipped without touching the network.
func (p *Pusher) Send(typ byte, data []byte) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, errors.New("ingest client: Send on closed pusher")
	}
	if p.fatal != nil {
		return 0, p.fatal
	}
	seq := p.nextSeq
	p.nextSeq++
	if seq <= p.acked {
		return seq, nil // the server already has it
	}
	f := pframe{typ: typ, seq: seq, data: append([]byte(nil), data...)}
	p.pending = append(p.pending, f)
	p.pendingBytes += len(f.data)
	if !p.writeFrameLocked(f) {
		if err := p.service(); err != nil {
			return seq, err
		}
	}
	for p.pendingBytes >= p.opts.WindowBytes {
		if err := p.service(); err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// Finish waits for every sent frame to be acknowledged, then closes the
// upload with FIN/FIN_ACK. After Finish returns nil, the server has
// archived and verified the complete stream.
func (p *Pusher) Finish() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	last := p.nextSeq - 1
	for p.finAcked < last {
		if p.fatal != nil {
			return p.fatal
		}
		if p.acked == last && !p.finSent && p.conn != nil && !p.connDead && !p.needRetx {
			if p.writeFrameLocked(pframe{typ: ingest.FrameFin, seq: last}) {
				p.finSent = true
			}
			continue
		}
		if err := p.service(); err != nil {
			return err
		}
	}
	p.stopWatch()
	return nil
}

// Close tears the connection down. Safe after Finish and after errors.
func (p *Pusher) Close() error {
	p.stopWatch()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.cond.Broadcast()
	return nil
}
