// Package netfault injects deterministic, seeded faults at the fleet's
// network edges: the coordinator control plane, the ingest handshake, and
// the data connections between pushers and nodes. It is the transport-layer
// sibling of internal/fault — where that package damages the *contents* of
// a trace, this one damages the *paths* the trace travels: connections
// refused (directional partitions), connections torn mid-stream, dials
// dropped outright, and latency added to the handshake.
//
// Determinism contract: for a fixed Matrix (seed included) every decision
// draws from a per-scope splitmix64 stream, one draw set per connection in
// that scope, so the nth connection of a scope always meets the same fate
// regardless of what other scopes did meanwhile. Scopes isolate the
// nondeterministic edges (heartbeat timing) from the deterministic ones
// (a client's sequential dials), which is what makes `jportal chaos
// -fleet` reproduce the same sweep table for the same seed.
//
// A zero (or rate-0) Matrix is pass-through: Listener and Dialer return
// their argument unchanged, so the no-netfault path is byte-identical by
// construction, not by testing alone.
package netfault

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"jportal/internal/faultrng"
	"jportal/internal/metrics"
)

// Class identifies one injected network-fault kind.
type Class uint8

const (
	// ClassDrop refuses a single connection: the dial errors, or the
	// accepted connection is closed before the handshake.
	ClassDrop Class = iota
	// ClassTear lets the connection establish, then severs it after a
	// seeded byte budget — the mid-CHUNK disconnect case.
	ClassTear
	// ClassPartition refuses a contiguous run of connections in one
	// scope, modelling a directional network partition that heals after
	// PartitionSpan connection attempts.
	ClassPartition
	// ClassDelay holds the connection for a seeded duration before
	// letting it proceed — handshake latency, not loss.
	ClassDelay

	numClasses
)

// Slug returns the class's stable snake_case name (metrics counter suffix).
func (c Class) Slug() string {
	switch c {
	case ClassDrop:
		return "conn_drop"
	case ClassTear:
		return "conn_tear"
	case ClassPartition:
		return "partition"
	case ClassDelay:
		return "delay"
	}
	return "unknown"
}

// InjectCounterName is the metrics key mirroring injections of this class.
func (c Class) InjectCounterName() string { return "netfault_injected_" + c.Slug() }

// Matrix is one fault configuration: per-connection probabilities plus the
// seed every decision derives from.
type Matrix struct {
	Seed uint64

	// ConnDrop is the probability a connection is refused outright.
	ConnDrop float64
	// Tear is the probability a connection is severed after TearAfterMax
	// (seeded, per-connection) bytes of reads+writes.
	Tear float64
	// TearAfterMax bounds the torn connection's byte budget (default 4096).
	TearAfterMax int
	// Partition is the probability a directional partition opens on this
	// scope: the next PartitionSpan connections are refused.
	Partition float64
	// PartitionSpan is how many consecutive connections one partition
	// swallows (default 3).
	PartitionSpan int
	// DelayMax bounds the seeded per-connection delay (0 disables delays).
	DelayMax time.Duration
}

// DefaultMatrix is the chaos sweep's base rate: at Scale(1.0) roughly one
// connection in six is refused, one in ten is torn, and one scope in
// twenty partitions.
func DefaultMatrix(seed uint64) Matrix {
	return Matrix{
		Seed:          seed,
		ConnDrop:      0.15,
		Tear:          0.10,
		TearAfterMax:  4096,
		Partition:     0.05,
		PartitionSpan: 3,
		DelayMax:      2 * time.Millisecond,
	}
}

// Scale multiplies every probability by f (clamped to 1) and scales the
// delay bound. Scale(0) is the pass-through matrix.
func (m Matrix) Scale(f float64) Matrix {
	m.ConnDrop = faultrng.ScaleProb(m.ConnDrop, f)
	m.Tear = faultrng.ScaleProb(m.Tear, f)
	m.Partition = faultrng.ScaleProb(m.Partition, f)
	m.DelayMax = time.Duration(float64(m.DelayMax) * f)
	return m
}

// active reports whether the matrix can inject anything at all.
func (m Matrix) active() bool {
	return m.ConnDrop > 0 || m.Tear > 0 || m.Partition > 0 || m.DelayMax > 0
}

// scopeState is one named stream's RNG plus any partition in progress.
type scopeState struct {
	rng           faultrng.Stream
	partitionLeft int
}

// verdict is one connection's fate. The draws behind it are made
// unconditionally and in a fixed order, so a scope's stream position after
// n connections is invariant across matrices with the same seed.
type verdict struct {
	refuse    bool
	class     Class // meaningful when refuse or tearAfter > 0 or delay > 0
	tearAfter int   // sever the connection after this many bytes (0 = never)
	delay     time.Duration
}

// Injector hands out per-connection verdicts and wraps listeners/dialers.
// Nil-safe: a nil *Injector injects nothing. Safe for concurrent use.
type Injector struct {
	m     Matrix
	tally *faultrng.Tally[Class]

	mu     sync.Mutex
	scopes map[string]*scopeState
}

// NewInjector builds an injector over m, mirroring injection counts into
// reg (nil: counts are still kept internally). The counters are registered
// at zero, so rate-0 runs report them too.
func NewInjector(m Matrix, reg *metrics.Registry) *Injector {
	return &Injector{
		m:      m,
		tally:  faultrng.NewTally(reg, metrics.CounterNetfaultInjected, numClasses),
		scopes: make(map[string]*scopeState),
	}
}

// Counts returns per-class injection counts keyed by slug.
func (in *Injector) Counts() map[string]int64 {
	if in == nil {
		return map[string]int64{}
	}
	return in.tally.Counts()
}

func (in *Injector) scope(name string) *scopeState {
	sc, ok := in.scopes[name]
	if !ok {
		sc = &scopeState{rng: faultrng.Scope(in.m.Seed, name)}
		in.scopes[name] = sc
	}
	return sc
}

// next draws one connection's verdict from the scope's stream.
func (in *Injector) next(scope string) verdict {
	if in == nil || !in.m.active() {
		return verdict{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	sc := in.scope(scope)
	if sc.partitionLeft > 0 {
		sc.partitionLeft--
		in.tally.Count(ClassPartition)
		return verdict{refuse: true, class: ClassPartition}
	}
	// Fixed draw order, every draw made: the stream advances identically
	// whether or not a given fault fires.
	part := sc.rng.Chance(in.m.Partition)
	drop := sc.rng.Chance(in.m.ConnDrop)
	tear := sc.rng.Chance(in.m.Tear)
	tearMax := in.m.TearAfterMax
	if tearMax <= 0 {
		tearMax = 4096
	}
	tearAfter := sc.rng.Intn(tearMax) + 1
	delayDraw := sc.rng.Next()
	switch {
	case part:
		span := in.m.PartitionSpan
		if span <= 0 {
			span = 3
		}
		sc.partitionLeft = span - 1
		in.tally.Count(ClassPartition)
		return verdict{refuse: true, class: ClassPartition}
	case drop:
		in.tally.Count(ClassDrop)
		return verdict{refuse: true, class: ClassDrop}
	case tear:
		in.tally.Count(ClassTear)
		return verdict{tearAfter: tearAfter, class: ClassTear}
	case in.m.DelayMax > 0:
		in.tally.Count(ClassDelay)
		return verdict{delay: time.Duration(delayDraw % uint64(in.m.DelayMax)), class: ClassDelay}
	}
	return verdict{}
}

// errRefused is what a dropped or partitioned dial returns; it looks like
// any other network error to the client's retry loop.
var errRefused = errors.New("netfault: connection refused (injected)")

// errTorn is the error a torn connection's reads and writes return once
// its byte budget is spent.
var errTorn = errors.New("netfault: connection torn (injected)")

// DialFunc matches the client's Options.Dial shape.
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

// Dialer wraps dial with fault injection under the named scope. Inactive
// injectors return dial itself, so the rate-0 path is the untouched one.
func (in *Injector) Dialer(scope string, dial DialFunc) DialFunc {
	if in == nil || !in.m.active() {
		return dial
	}
	return func(ctx context.Context, addr string) (net.Conn, error) {
		v := in.next(scope)
		if v.refuse {
			return nil, fmt.Errorf("%w: %s", errRefused, addr)
		}
		if v.delay > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(v.delay):
			}
		}
		conn, err := dial(ctx, addr)
		if err != nil || v.tearAfter == 0 {
			return conn, err
		}
		return &tornConn{Conn: conn, budget: v.tearAfter}, nil
	}
}

// DialContext adapts Dialer to net/http's Transport.DialContext shape, so
// the control-plane HTTP client can dial through the injector.
func (in *Injector) DialContext(scope string) func(ctx context.Context, network, addr string) (net.Conn, error) {
	dial := in.Dialer(scope, func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	})
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		return dial(ctx, addr)
	}
}

// Listener wraps ln with accept-side fault injection under the named
// scope: refused connections are closed before the handshake, torn ones
// sever after their byte budget. Inactive injectors return ln itself.
func (in *Injector) Listener(scope string, ln net.Listener) net.Listener {
	if in == nil || !in.m.active() {
		return ln
	}
	return &faultListener{Listener: ln, in: in, scope: scope}
}

type faultListener struct {
	net.Listener
	in    *Injector
	scope string
}

func (l *faultListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		v := l.in.next(l.scope)
		if v.refuse {
			conn.Close()
			continue
		}
		if v.delay > 0 {
			time.Sleep(v.delay)
		}
		if v.tearAfter > 0 {
			return &tornConn{Conn: conn, budget: v.tearAfter}, nil
		}
		return conn, nil
	}
}

// tornConn passes bytes through until its budget is spent, then closes the
// underlying connection and fails every subsequent operation — the shape
// of a connection reset mid-stream. A write that would cross the budget is
// written partially (a torn write), like a real half-flushed socket.
type tornConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
	torn   bool
}

func (c *tornConn) take(n int) (allowed int, torn bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.torn {
		return 0, true
	}
	if n >= c.budget {
		n = c.budget
		c.torn = true
	}
	c.budget -= n
	return n, c.torn
}

func (c *tornConn) Read(b []byte) (int, error) {
	allowed, torn := c.take(len(b))
	if allowed == 0 && torn {
		c.Conn.Close()
		return 0, errTorn
	}
	n, err := c.Conn.Read(b[:allowed])
	if torn {
		c.Conn.Close()
		if err == nil {
			err = errTorn
		}
	}
	return n, err
}

func (c *tornConn) Write(b []byte) (int, error) {
	allowed, torn := c.take(len(b))
	if allowed == 0 && torn {
		c.Conn.Close()
		return 0, errTorn
	}
	n, err := c.Conn.Write(b[:allowed])
	if torn {
		c.Conn.Close()
		if err == nil {
			err = errTorn
		}
	}
	return n, err
}
