package iofault

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"jportal/internal/metrics"
)

// TestPassthroughPointerIdentity pins the rate-0 acceptance bar: a nil
// injector and an inactive matrix both hand back the OS singleton itself,
// so the unfaulted path is the identical interface value, not a wrapper.
func TestPassthroughPointerIdentity(t *testing.T) {
	var nilInj *Injector
	if fs := nilInj.FS("any"); fs != OS {
		t.Fatalf("nil injector FS = %T, want the OS singleton", fs)
	}
	inj := NewInjector(Matrix{Seed: 1}, nil)
	if fs := inj.FS("any"); fs != OS {
		t.Fatalf("rate-0 injector FS = %T, want the OS singleton", fs)
	}
	inj = NewInjector(DefaultMatrix(1).Scale(0), nil)
	if fs := inj.FS("any"); fs != OS {
		t.Fatalf("Scale(0) injector FS = %T, want the OS singleton", fs)
	}
	if fs := NewInjector(DefaultMatrix(1), nil).FS("x"); fs == OS {
		t.Fatal("active injector returned the OS singleton")
	}
}

// TestDeterministicPerScope pins the determinism contract: the same seed
// and scope produce the same fault sequence, independent scopes produce
// independent ones, and a second injector replays the first exactly.
func TestDeterministicPerScope(t *testing.T) {
	sequence := func(in *Injector, scope string, n int) []error {
		out := make([]error, 0, n)
		fsys := in.FS(scope)
		dir := t.TempDir()
		f, err := fsys.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
		for err != nil { // keep drawing until a create succeeds
			out = append(out, err)
			n--
			if n <= 0 {
				return out
			}
			f, err = fsys.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
		}
		defer f.Close()
		for i := 0; i < n; i++ {
			_, err := f.Write([]byte("0123456789abcdef"))
			out = append(out, err)
		}
		return out
	}
	m := DefaultMatrix(99)
	m.SlowMax = 0 // keep the test instant
	a := sequence(NewInjector(m, nil), "alpha", 64)
	b := sequence(NewInjector(m, nil), "alpha", 64)
	if len(a) != len(b) {
		t.Fatalf("sequence lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || (a[i] != nil && a[i].Error() != b[i].Error()) {
			t.Fatalf("op %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	c := sequence(NewInjector(m, nil), "beta", 64)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if (a[i] == nil) != (c[i] == nil) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("scopes alpha and beta drew identical fault sequences")
	}
}

// TestErrnoIdentity pins that injected faults are indistinguishable from
// the real thing to errors.Is — the ingest shed path keys off the errno.
func TestErrnoIdentity(t *testing.T) {
	if !errors.Is(ErrNoSpace, syscall.ENOSPC) {
		t.Error("ErrNoSpace does not wrap syscall.ENOSPC")
	}
	if !errors.Is(ErrIO, syscall.EIO) {
		t.Error("ErrIO does not wrap syscall.EIO")
	}
}

// TestTornWriteLandsPrefix forces a torn write and asserts a strict
// nonempty prefix really landed on disk before the error.
func TestTornWriteLandsPrefix(t *testing.T) {
	inj := NewInjector(Matrix{Seed: 7, TornWrite: 1}, nil)
	fsys := inj.FS("torn")
	path := filepath.Join(t.TempDir(), "f")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	n, err := f.Write(payload)
	f.Close()
	if err == nil || !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn write error = %v, want EIO", err)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("torn write landed %d bytes, want a strict nonempty prefix of %d", n, len(payload))
	}
	got, _ := os.ReadFile(path)
	if string(got) != string(payload[:n]) {
		t.Fatalf("on-disk prefix %q does not match reported %d bytes", got, n)
	}
	if c := inj.Counts()["torn_write"]; c != 1 {
		t.Fatalf("torn_write count = %d, want 1", c)
	}
}

// TestCountersMirrored pins the metrics contract: the total and every
// per-class counter pre-register at zero, and firing a class moves both
// the class counter and the total.
func TestCountersMirrored(t *testing.T) {
	reg := metrics.NewRegistry()
	inj := NewInjector(Matrix{Seed: 3, ENOSPC: 1}, reg)
	snap := reg.Snapshot()
	if v, ok := snap[metrics.CounterIofaultInjected]; !ok || v != 0 {
		t.Fatalf("total counter not pre-registered at zero: %v %v", v, ok)
	}
	for _, c := range Classes() {
		if v, ok := snap[c.InjectCounterName()]; !ok || v != 0 {
			t.Fatalf("%s not pre-registered at zero: %v %v", c.InjectCounterName(), v, ok)
		}
	}
	fsys := inj.FS("s")
	if _, err := fsys.OpenFile(filepath.Join(t.TempDir(), "f"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ENOSPC-1.0 create error = %v", err)
	}
	if got := reg.Get(ClassENOSPC.InjectCounterName()); got != 1 {
		t.Fatalf("enospc counter = %d, want 1", got)
	}
	if got := reg.Get(metrics.CounterIofaultInjected); got != 1 {
		t.Fatalf("total counter = %d, want 1", got)
	}
}

// TestSyncAndReadFaults exercises the remaining classes at rate 1.
func TestSyncAndReadFaults(t *testing.T) {
	inj := NewInjector(Matrix{Seed: 5, SyncErr: 1}, nil)
	f, err := inj.FS("s").OpenFile(filepath.Join(t.TempDir(), "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync error = %v, want EIO", err)
	}

	inj = NewInjector(Matrix{Seed: 5, ReadErr: 1}, nil)
	path := filepath.Join(t.TempDir(), "g")
	os.WriteFile(path, []byte("data"), 0o644)
	if _, err := inj.FS("s").ReadFile(path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("ReadFile error = %v, want EIO", err)
	}
}

// TestScaleClampsAndDisables pins Scale's clamping semantics.
func TestScaleClampsAndDisables(t *testing.T) {
	for _, tc := range []struct {
		f      float64
		p      float64
		active bool
	}{
		{f: 1000, p: 1, active: true},
		{f: 1e6, p: 1, active: true},
		{f: 0, p: 0, active: false},
	} {
		m := DefaultMatrix(1).Scale(tc.f)
		for _, p := range []float64{m.ENOSPC, m.ReadErr, m.WriteErr, m.SyncErr, m.TornWrite, m.Slow} {
			if p != tc.p {
				t.Fatalf("Scale(%g): probability %v, want %v: %+v", tc.f, p, tc.p, m)
			}
		}
		if m.active() != tc.active {
			t.Fatalf("Scale(%g): active = %v, want %v", tc.f, m.active(), tc.active)
		}
	}
	if d := DefaultMatrix(1); d.SlowMax != time.Millisecond {
		t.Fatalf("unexpected default SlowMax %v", d.SlowMax)
	}
}
