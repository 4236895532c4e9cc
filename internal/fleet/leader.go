package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"jportal/internal/ckpt"
	"jportal/internal/iofault"
)

// leaseFileName is the leadership lease inside the shared election dir.
// It uses the same CRC envelope + atomic-rename write path as everything
// else durable, so a torn lease write reads as corrupt (treated as absent
// and re-acquired) rather than as a bogus leader.
const leaseFileName = "leader.lease"

// leaseRecord is the on-disk leadership claim. Epoch is the fencing
// token: it only ever moves forward, every acquisition bumps it, and a
// coordinator that persists fleet state while holding a stale epoch has
// been deposed — its writes must stop (Coordinator.persistLocked checks
// IsLeader before every write).
type leaseRecord struct {
	Holder           string `json:"holder"`
	Epoch            int64  `json:"epoch"`
	ExpiresUnixMilli int64  `json:"expires_unix_ms"`
}

// ElectionConfig configures one coordinator's leadership campaign.
type ElectionConfig struct {
	// Dir is the shared directory the lease file lives in. Every
	// coordinator replica must point at the same one (it is typically the
	// fleet's shared StateDir).
	Dir string
	// ID names this candidate in the lease (host-pid style; must be
	// unique across replicas).
	ID string
	// TTL is the leadership lease duration. The campaign ticks at TTL/8,
	// so a standby notices an expired lease and takes over well within
	// one TTL. Default 2s.
	TTL time.Duration
	// Logf, when set, receives one line per leadership transition.
	Logf func(format string, args ...any)

	// FS, when set, routes lease reads and writes through a
	// fault-injecting filesystem (internal/iofault). Nil means the real
	// filesystem. A torn or failed lease write already degrades to
	// "vacant, re-acquire next tick", so injected faults here exercise
	// the election's crash-equivalence, not new code paths.
	FS iofault.FS

	// now substitutes the clock in tests.
	now func() time.Time
	// settle substitutes the acquire settle delay in tests.
	settle time.Duration
}

// Election is a lease-based leadership claim over a shared directory:
// whichever coordinator last renamed a valid, unexpired lease into place
// leads; everyone else stands by. There is no consensus protocol here —
// just the same crash-atomic rename the data plane already trusts — so
// two candidates racing an expired lease can both believe they won for up
// to one campaign tick. The epoch fence makes that window harmless: the
// loser observes the higher epoch on its next tick and steps down, and
// its state writes are refused in the meantime (persistLocked checks
// IsLeader, whose lease-expiry check is conservative).
type Election struct {
	cfg ElectionConfig

	mu         sync.Mutex
	epoch      int64 // epoch we hold while leading; 0 = standby
	expires    time.Time
	observed   int64 // highest epoch seen in the lease file
	lastHolder string
	failovers  int64 // acquisitions from a different previous holder

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartElection joins the leadership campaign and returns immediately;
// the first campaign tick runs synchronously, so a lone candidate leads
// by the time this returns. Call Close to stop campaigning (the lease
// then expires on its own, as after SIGKILL) or Resign to hand off
// immediately.
func StartElection(cfg ElectionConfig) (*Election, error) {
	if cfg.Dir == "" {
		return nil, errors.New("fleet: election needs a shared directory")
	}
	if cfg.ID == "" {
		cfg.ID = fmt.Sprintf("coordinator-%d", os.Getpid())
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.settle <= 0 {
		cfg.settle = cfg.TTL / 16
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	e := &Election{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	e.step()
	go e.campaign()
	return e, nil
}

// IsLeader reports whether this candidate currently holds an unexpired
// lease. It is deliberately conservative: once our own lease horizon
// passes without a renewal (crashed disk, stalled process), we stop
// claiming leadership even before observing a successor.
func (e *Election) IsLeader() bool {
	if e == nil {
		return true // no election configured: single-coordinator fleets always lead
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch != 0 && e.cfg.now().Before(e.expires)
}

// Epoch returns the fencing epoch held while leading, 0 on standby.
func (e *Election) Epoch() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.epoch != 0 && !e.cfg.now().Before(e.expires) {
		return 0
	}
	return e.epoch
}

// ObservedEpoch returns the highest leadership epoch this candidate has
// seen — its own or the lease file's (the leadership_epoch gauge).
func (e *Election) ObservedEpoch() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.epoch > e.observed {
		return e.epoch
	}
	return e.observed
}

// Failovers returns how many times this candidate acquired leadership
// from a different previous holder (the coordinator_failovers counter).
func (e *Election) Failovers() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failovers
}

// Close stops campaigning without touching the lease: if we led, the
// lease runs out on its own — exactly the SIGKILL shape. Idempotent.
func (e *Election) Close() {
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
}

// Resign hands leadership off immediately: the lease is rewritten as
// already expired (same epoch, so the successor's acquisition still
// fences us out by bumping it) and campaigning stops. Used by the
// graceful-shutdown path; best-effort.
func (e *Election) Resign() {
	e.mu.Lock()
	epoch := e.epoch
	e.epoch = 0
	e.mu.Unlock()
	e.Close()
	if epoch == 0 {
		return
	}
	rec := leaseRecord{Holder: e.cfg.ID, Epoch: epoch, ExpiresUnixMilli: 0}
	if err := e.writeLease(rec); err == nil {
		e.cfg.Logf("fleet: %s resigned leadership at epoch %d", e.cfg.ID, epoch)
	}
}

func (e *Election) campaign() {
	defer close(e.done)
	t := time.NewTicker(e.cfg.TTL / 8)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			e.step()
		}
	}
}

func (e *Election) leasePath() string { return filepath.Join(e.cfg.Dir, leaseFileName) }

func (e *Election) readLease() leaseRecord {
	payload, err := ckpt.ReadFile(e.fsys(), e.leasePath())
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			// Corrupt or torn: treat as absent. The next acquisition
			// rewrites it whole (rename is atomic), and epochs never move
			// backwards because acquirers bump what they last observed.
			e.cfg.Logf("fleet: leadership lease unreadable, treating as vacant: %v", err)
		}
		return leaseRecord{}
	}
	var rec leaseRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		e.cfg.Logf("fleet: leadership lease undecodable, treating as vacant: %v", err)
		return leaseRecord{}
	}
	return rec
}

func (e *Election) writeLease(rec leaseRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return ckpt.WriteFile(e.fsys(), e.leasePath(), payload)
}

func (e *Election) fsys() iofault.FS {
	if e.cfg.FS != nil {
		return e.cfg.FS
	}
	return iofault.OS
}

// step runs one campaign tick: renew our lease, stand by behind a live
// leader, or try to acquire a vacant/expired lease.
func (e *Election) step() {
	now := e.cfg.now()
	rec := e.readLease()

	e.mu.Lock()
	if rec.Epoch > e.observed {
		e.observed = rec.Epoch
	}
	leading := e.epoch != 0
	myEpoch := e.epoch
	e.mu.Unlock()

	if leading {
		if rec.Holder == e.cfg.ID && rec.Epoch == myEpoch {
			// Renew. A failed write past our horizon means we can no
			// longer prove leadership; step down and let the campaign
			// re-acquire if the lease is still ours next tick.
			renewed := leaseRecord{Holder: e.cfg.ID, Epoch: myEpoch, ExpiresUnixMilli: now.Add(e.cfg.TTL).UnixMilli()}
			if err := e.writeLease(renewed); err != nil {
				e.cfg.Logf("fleet: %s lease renewal failed: %v", e.cfg.ID, err)
				return
			}
			e.mu.Lock()
			e.expires = now.Add(e.cfg.TTL)
			e.mu.Unlock()
			return
		}
		// Someone else's claim (or a higher epoch of ours) is on disk:
		// we were deposed. Stop leading at once.
		e.mu.Lock()
		e.epoch = 0
		e.mu.Unlock()
		e.cfg.Logf("fleet: %s deposed by %s (epoch %d)", e.cfg.ID, rec.Holder, rec.Epoch)
		return
	}

	// Standby: respect a live lease.
	if rec.Holder != "" && rec.Holder != e.cfg.ID && now.UnixMilli() < rec.ExpiresUnixMilli {
		e.mu.Lock()
		e.lastHolder = rec.Holder
		e.mu.Unlock()
		return
	}

	// Vacant or expired: try to acquire with a bumped epoch, settle, and
	// re-read to see whether our rename won the race.
	claim := leaseRecord{Holder: e.cfg.ID, Epoch: rec.Epoch + 1, ExpiresUnixMilli: now.Add(e.cfg.TTL).UnixMilli()}
	if err := e.writeLease(claim); err != nil {
		e.cfg.Logf("fleet: %s lease acquisition failed: %v", e.cfg.ID, err)
		return
	}
	if e.cfg.settle > 0 {
		time.Sleep(e.cfg.settle)
	}
	confirm := e.readLease()
	if confirm.Holder != e.cfg.ID || confirm.Epoch != claim.Epoch {
		// Lost the race; the winner's epoch is on disk.
		e.mu.Lock()
		if confirm.Epoch > e.observed {
			e.observed = confirm.Epoch
		}
		e.mu.Unlock()
		return
	}
	e.mu.Lock()
	prev := e.lastHolder
	if prev == "" {
		prev = rec.Holder
	}
	e.epoch = claim.Epoch
	e.expires = now.Add(e.cfg.TTL)
	if claim.Epoch > e.observed {
		e.observed = claim.Epoch
	}
	if prev != "" && prev != e.cfg.ID {
		e.failovers++
	}
	e.lastHolder = e.cfg.ID
	e.mu.Unlock()
	e.cfg.Logf("fleet: %s assumed leadership at epoch %d (previous: %s)", e.cfg.ID, claim.Epoch, prevOrNone(prev))
}

func prevOrNone(prev string) string {
	if prev == "" {
		return "none"
	}
	return prev
}
