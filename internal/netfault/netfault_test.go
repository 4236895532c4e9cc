package netfault

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"jportal/internal/metrics"
)

// drawFates records the verdict sequence one scope produces.
func drawFates(in *Injector, scope string, n int) []verdict {
	out := make([]verdict, n)
	for i := range out {
		out[i] = in.next(scope)
	}
	return out
}

func TestDeterministicPerScope(t *testing.T) {
	m := DefaultMatrix(42).Scale(2)
	a := NewInjector(m, nil)
	b := NewInjector(m, nil)
	// Interleave scope draws differently across the two injectors: the
	// per-scope streams must not care.
	for i := 0; i < 50; i++ {
		a.next("ctrl")
	}
	fa := drawFates(a, "client", 200)
	fb1 := drawFates(b, "client", 100)
	for i := 0; i < 50; i++ {
		b.next("ctrl")
	}
	fb2 := drawFates(b, "client", 100)
	fb := append(fb1, fb2...)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("verdict %d diverged across interleavings: %+v vs %+v", i, fa[i], fb[i])
		}
	}
	if drawFates(a, "other", 1)[0] == drawFates(a, "client", 1)[0] {
		// Not a hard property (collisions are possible), but with these
		// rates the first verdicts of distinct scopes colliding on every
		// field would indicate the scope hash is not feeding the stream.
		t.Log("note: first verdicts of two scopes coincided")
	}
}

func TestPartitionSwallowsSpan(t *testing.T) {
	m := Matrix{Seed: 7, Partition: 1, PartitionSpan: 3}
	in := NewInjector(m, nil)
	refused := 0
	for i := 0; i < 6; i++ {
		if in.next("s").refuse {
			refused++
		}
	}
	if refused != 6 {
		t.Fatalf("Partition=1 refused %d/6 connections, want all", refused)
	}
	if got := in.Counts()["partition"]; got != 6 {
		t.Fatalf("partition count = %d, want 6", got)
	}
}

func TestZeroMatrixIsPassthrough(t *testing.T) {
	in := NewInjector(Matrix{Seed: 1}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if got := in.Listener("s", ln); got != ln {
		t.Fatalf("zero matrix must return the listener unchanged, got %T", got)
	}
	dial := func(ctx context.Context, addr string) (net.Conn, error) { return nil, nil }
	if in.Dialer("s", dial) == nil {
		t.Fatal("Dialer returned nil")
	}
	var nilInj *Injector
	if got := nilInj.Listener("s", ln); got != ln {
		t.Fatal("nil injector must return the listener unchanged")
	}
	if v := nilInj.next("s"); v != (verdict{}) {
		t.Fatalf("nil injector verdict = %+v, want zero", v)
	}
	// Scale clamps every probability into [0, 1]; Scale(0) deactivates
	// everything.
	for _, tc := range []struct {
		f      float64
		p      float64
		active bool
	}{
		{f: 1e6, p: 1, active: true},
		{f: 0, p: 0, active: false},
	} {
		m := DefaultMatrix(9).Scale(tc.f)
		for _, p := range []float64{m.ConnDrop, m.Tear, m.Partition} {
			if p != tc.p {
				t.Fatalf("Scale(%g): probability %v, want %v: %+v", tc.f, p, tc.p, m)
			}
		}
		if m.active() != tc.active {
			t.Fatalf("Scale(%g): active = %v, want %v", tc.f, m.active(), tc.active)
		}
	}
}

func TestTornConnSeversAfterBudget(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	torn := &tornConn{Conn: client, budget: 5}
	go func() {
		io.ReadFull(server, make([]byte, 5))
	}()
	if _, err := torn.Write([]byte("hello world")); !errors.Is(err, errTorn) {
		t.Fatalf("write past budget = %v, want errTorn", err)
	}
	if _, err := torn.Write([]byte("x")); !errors.Is(err, errTorn) {
		t.Fatalf("write after tear = %v, want errTorn", err)
	}
	if _, err := torn.Read(make([]byte, 1)); !errors.Is(err, errTorn) {
		t.Fatalf("read after tear = %v, want errTorn", err)
	}
}

func TestDialerInjectsAndCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	in := NewInjector(Matrix{Seed: 3, ConnDrop: 1}, reg)
	dial := in.Dialer("s", func(ctx context.Context, addr string) (net.Conn, error) {
		t.Fatal("inner dial must not run for a dropped connection")
		return nil, nil
	})
	if _, err := dial(context.Background(), "x"); !errors.Is(err, errRefused) {
		t.Fatalf("dial = %v, want errRefused", err)
	}
	if got := reg.Get(metrics.CounterNetfaultInjected); got != 1 {
		t.Fatalf("netfault_injected_total = %d, want 1", got)
	}
	if got := reg.Get(ClassDrop.InjectCounterName()); got != 1 {
		t.Fatalf("per-class drop counter = %d, want 1", got)
	}
}

func TestListenerRefusesAndServesNext(t *testing.T) {
	// Drop exactly the first accepted connection (seeded draw with
	// ConnDrop=1 for one verdict, then a fresh injector would... instead
	// use partition span 1 via draw order): simplest deterministic shape
	// is ConnDrop=1 — every connection is refused — and assert the dial
	// side sees EOF-like behavior while Accept keeps serving.
	in := NewInjector(Matrix{Seed: 5, ConnDrop: 1}, nil)
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := in.Listener("s", base)
	defer ln.Close()
	accepted := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			conn.Close()
		}
		close(accepted)
	}()
	// Every accepted connection is refused, so Accept never returns until
	// the listener closes; the client just sees its connection die.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("refused connection delivered bytes")
	}
	conn.Close()
	ln.Close()
	<-accepted
}
