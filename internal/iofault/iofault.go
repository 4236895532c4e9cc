// Package iofault injects deterministic, seeded faults at the storage
// layer: the filesystem operations beneath the atomic state writer
// (fsatomic), the archive stream writer, the ingest session state, and the
// coordinator's durable control-plane state. It is the disk-layer sibling
// of internal/netfault — where that package damages the *paths* a trace
// travels, this one damages the *media* it lands on: writes refused with
// ENOSPC, reads and fsyncs failing with EIO, torn writes (a short write
// followed by an error, the shape of a crash mid-sector), and slow I/O.
//
// Determinism contract: for a fixed Matrix (seed included) every decision
// draws from a per-scope splitmix64 stream, one fixed-order draw set per
// operation in that scope, so the nth faultable operation of a scope always
// meets the same fate regardless of what other scopes did meanwhile. The
// ingest server serialises each session's archive writes in one writer
// goroutine, which totally orders that scope's operations — the property
// that makes `jportal chaos -disk` reproduce the same sweep table for the
// same seed.
//
// A nil injector or a zero (rate-0) matrix is pass-through: FS returns the
// OS singleton itself — the identical interface value the unfaulted paths
// use — so the no-iofault path is byte-identical by construction, not by
// testing alone.
package iofault

import (
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"jportal/internal/faultrng"
	"jportal/internal/metrics"
)

// Class identifies one injected storage-fault kind.
type Class uint8

const (
	// ClassENOSPC refuses a create or a write with "no space left on
	// device" — the full-disk case the ingest write path must shed, not
	// crash, on.
	ClassENOSPC Class = iota
	// ClassReadErr fails a read with EIO — the unreadable-sector case the
	// scrubber classifies as mid-file corruption.
	ClassReadErr
	// ClassWriteErr fails a write with EIO before any byte lands.
	ClassWriteErr
	// ClassSyncErr fails an fsync with EIO — the write appeared to
	// succeed but durability is gone, the failure mode fsatomic's
	// sync-before-rename exists to surface.
	ClassSyncErr
	// ClassTornWrite lands a short prefix of the buffer, then fails —
	// the torn-tail shape a crash mid-record leaves behind.
	ClassTornWrite
	// ClassSlow delays the operation by a seeded duration — a congested
	// or degrading device, not a failing one.
	ClassSlow

	numClasses
)

// Slug returns the class's stable snake_case name (metrics counter suffix).
func (c Class) Slug() string {
	switch c {
	case ClassENOSPC:
		return "enospc"
	case ClassReadErr:
		return "read_eio"
	case ClassWriteErr:
		return "write_eio"
	case ClassSyncErr:
		return "sync_eio"
	case ClassTornWrite:
		return "torn_write"
	case ClassSlow:
		return "slow_io"
	}
	return "unknown"
}

// InjectCounterName is the metrics key mirroring injections of this class.
func (c Class) InjectCounterName() string { return "iofault_injected_" + c.Slug() }

// Classes lists every fault class in declaration order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// ErrNoSpace is the injected full-disk error. It wraps syscall.ENOSPC so
// errors.Is treats injected and real disk exhaustion identically — the
// graceful-degradation path in the ingest writer keys off the errno, not
// off this sentinel.
var ErrNoSpace = fmt.Errorf("iofault: no space left on device (injected): %w", syscall.ENOSPC)

// ErrIO is the injected media error, wrapping syscall.EIO for the same
// reason ErrNoSpace wraps ENOSPC.
var ErrIO = fmt.Errorf("iofault: input/output error (injected): %w", syscall.EIO)

// Matrix is one fault configuration: per-operation probabilities plus the
// seed every decision derives from.
type Matrix struct {
	Seed uint64

	// ENOSPC is the probability a create or write fails with ErrNoSpace.
	ENOSPC float64
	// ReadErr is the probability a read fails with ErrIO.
	ReadErr float64
	// WriteErr is the probability a write fails with ErrIO (no bytes land).
	WriteErr float64
	// SyncErr is the probability an fsync fails with ErrIO.
	SyncErr float64
	// TornWrite is the probability a write lands a short seeded prefix
	// and then fails with ErrIO.
	TornWrite float64
	// Slow is the probability an operation is delayed.
	Slow float64
	// SlowMax bounds the seeded per-operation delay (0 disables delays).
	SlowMax time.Duration
}

// DefaultMatrix is the chaos sweep's base rate: at Scale(1.0) roughly one
// write in ten is torn, one operation in twenty hits ENOSPC or EIO, and
// one in ten crawls.
func DefaultMatrix(seed uint64) Matrix {
	return Matrix{
		Seed:      seed,
		ENOSPC:    0.05,
		ReadErr:   0.05,
		WriteErr:  0.05,
		SyncErr:   0.05,
		TornWrite: 0.10,
		Slow:      0.10,
		SlowMax:   time.Millisecond,
	}
}

// Scale multiplies every probability by f (clamped to 1) and scales the
// delay bound. Scale(0) is the pass-through matrix.
func (m Matrix) Scale(f float64) Matrix {
	m.ENOSPC = faultrng.ScaleProb(m.ENOSPC, f)
	m.ReadErr = faultrng.ScaleProb(m.ReadErr, f)
	m.WriteErr = faultrng.ScaleProb(m.WriteErr, f)
	m.SyncErr = faultrng.ScaleProb(m.SyncErr, f)
	m.TornWrite = faultrng.ScaleProb(m.TornWrite, f)
	m.Slow = faultrng.ScaleProb(m.Slow, f)
	m.SlowMax = time.Duration(float64(m.SlowMax) * f)
	return m
}

// active reports whether the matrix can inject anything at all.
func (m Matrix) active() bool {
	return m.ENOSPC > 0 || m.ReadErr > 0 || m.WriteErr > 0 ||
		m.SyncErr > 0 || m.TornWrite > 0 || (m.Slow > 0 && m.SlowMax > 0)
}

// File is the file-handle surface the faulted paths write through.
// *os.File satisfies it; the injector's wrapper intercepts Read, Write and
// Sync. Close, Seek, Truncate, Chmod and Name pass through unfaulted — the
// repair paths (truncate-to-last-valid-record, quarantine moves) must
// always be able to make progress, or an injected fault could wedge the
// very machinery that recovers from it.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.Seeker
	Name() string
	Chmod(mode os.FileMode) error
	Sync() error
	Truncate(size int64) error
}

// FS is the filesystem surface the faulted paths go through: exactly the
// operations fsatomic, the archive writer, and the ingest session state
// need. Rename, Remove and SyncDir are deliberately unfaulted (same
// rationale as File's pass-through set); faults land on creates, reads,
// writes and fsyncs — the operations with real-world partial-failure
// modes.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS is the pass-through filesystem singleton. Injector.FS returns OS
// itself for a nil or rate-0 injector, so the unfaulted path is
// pointer-identical to the pre-iofault code, not merely equivalent.
var OS FS = osFS{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

// SyncDir fsyncs a directory so a completed rename is durable.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// op identifies which fault classes apply to one operation.
type op uint8

const (
	opCreate op = iota // OpenFile with O_CREATE, CreateTemp
	opRead             // Read, ReadFile
	opWrite            // Write
	opSync             // Sync
)

// action is one operation's fate. The draws behind it are made
// unconditionally and in a fixed order, so a scope's stream position after
// n operations is invariant across matrices with the same seed — exactly
// netfault's verdict contract.
type action struct {
	err  error         // fault to return (nil = none)
	torn int           // >0: land this many bytes of the write, then fail
	slow time.Duration // delay before the operation proceeds
}

// Injector hands out per-operation verdicts and wraps filesystems.
// Nil-safe: a nil *Injector injects nothing. Safe for concurrent use.
type Injector struct {
	m     Matrix
	tally *faultrng.Tally[Class]

	mu     sync.Mutex
	scopes map[string]*faultrng.Stream
}

// NewInjector builds an injector over m, mirroring injection counts into
// reg (nil: counts are still kept internally). The counters are registered
// at zero, so rate-0 runs report them too.
func NewInjector(m Matrix, reg *metrics.Registry) *Injector {
	return &Injector{
		m:      m,
		tally:  faultrng.NewTally(reg, metrics.CounterIofaultInjected, numClasses),
		scopes: make(map[string]*faultrng.Stream),
	}
}

// Counts returns per-class injection counts keyed by slug.
func (in *Injector) Counts() map[string]int64 {
	if in == nil {
		return map[string]int64{}
	}
	return in.tally.Counts()
}

func (in *Injector) scope(name string) *faultrng.Stream {
	sc, ok := in.scopes[name]
	if !ok {
		s := faultrng.Scope(in.m.Seed, name)
		sc = &s
		in.scopes[name] = sc
	}
	return sc
}

// next draws one operation's fate from the scope's stream. Every draw is
// made regardless of the operation kind, so the stream position after n
// operations does not depend on the mix of reads and writes.
func (in *Injector) next(scope string, kind op, size int) action {
	if in == nil || !in.m.active() {
		return action{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	sc := in.scope(scope)
	enospc := sc.Chance(in.m.ENOSPC)
	readErr := sc.Chance(in.m.ReadErr)
	writeErr := sc.Chance(in.m.WriteErr)
	syncErr := sc.Chance(in.m.SyncErr)
	torn := sc.Chance(in.m.TornWrite)
	slow := sc.Chance(in.m.Slow)
	slowDraw := sc.Next()
	tornDraw := sc.Next()

	switch kind {
	case opCreate:
		if enospc {
			in.tally.Count(ClassENOSPC)
			return action{err: ErrNoSpace}
		}
	case opRead:
		if readErr {
			in.tally.Count(ClassReadErr)
			return action{err: ErrIO}
		}
	case opWrite:
		switch {
		case enospc:
			in.tally.Count(ClassENOSPC)
			return action{err: ErrNoSpace}
		case torn && size > 1:
			in.tally.Count(ClassTornWrite)
			return action{err: ErrIO, torn: 1 + int(tornDraw%uint64(size-1))}
		case writeErr || torn: // a 0/1-byte torn write degenerates to EIO
			in.tally.Count(ClassWriteErr)
			return action{err: ErrIO}
		}
	case opSync:
		if syncErr {
			in.tally.Count(ClassSyncErr)
			return action{err: ErrIO}
		}
	}
	if slow && in.m.SlowMax > 0 {
		in.tally.Count(ClassSlow)
		return action{slow: time.Duration(slowDraw % uint64(in.m.SlowMax))}
	}
	return action{}
}

// FS returns a filesystem whose creates, reads, writes and fsyncs draw
// faults from the named scope's stream. A nil or inactive injector returns
// the OS singleton itself — the pointer-identical pass-through the rate-0
// acceptance bar demands.
func (in *Injector) FS(scope string) FS {
	if in == nil || !in.m.active() {
		return OS
	}
	return &faultFS{in: in, scope: scope}
}

type faultFS struct {
	in    *Injector
	scope string
}

func (f *faultFS) apply(kind op, size int) error {
	a := f.in.next(f.scope, kind, size)
	if a.slow > 0 {
		time.Sleep(a.slow)
	}
	return a.err
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&os.O_CREATE != 0 {
		if err := f.apply(opCreate, 0); err != nil {
			return nil, fmt.Errorf("open %s: %w", name, err)
		}
	}
	file, err := OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *faultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.apply(opCreate, 0); err != nil {
		return nil, fmt.Errorf("createtemp %s: %w", dir, err)
	}
	file, err := OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	if err := f.apply(opRead, 0); err != nil {
		return nil, fmt.Errorf("read %s: %w", name, err)
	}
	return OS.ReadFile(name)
}

func (f *faultFS) Rename(oldpath, newpath string) error { return OS.Rename(oldpath, newpath) }

func (f *faultFS) Remove(name string) error { return OS.Remove(name) }

func (f *faultFS) SyncDir(dir string) error { return OS.SyncDir(dir) }

// faultFile intercepts the faultable handle operations; everything else
// passes through to the embedded File.
type faultFile struct {
	File
	fs *faultFS
}

func (f *faultFile) Read(b []byte) (int, error) {
	if err := f.fs.apply(opRead, len(b)); err != nil {
		return 0, err
	}
	return f.File.Read(b)
}

func (f *faultFile) Write(b []byte) (int, error) {
	a := f.fs.in.next(f.fs.scope, opWrite, len(b))
	if a.slow > 0 {
		time.Sleep(a.slow)
	}
	if a.torn > 0 {
		// Land a short prefix, then fail: the torn-tail shape. The bytes
		// really are on disk — that is the point.
		n, err := f.File.Write(b[:a.torn])
		if err != nil {
			return n, err
		}
		return n, a.err
	}
	if a.err != nil {
		return 0, a.err
	}
	return f.File.Write(b)
}

func (f *faultFile) Sync() error {
	if err := f.fs.apply(opSync, 0); err != nil {
		return err
	}
	return f.File.Sync()
}
