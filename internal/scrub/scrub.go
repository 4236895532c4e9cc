// Package scrub is the storage-durability sweep over an ingest data dir
// (DESIGN.md §16): it re-verifies record framing and CRC seals on every
// session archive at a bounded I/O rate, classifies what it finds — torn
// tail, mid-file corruption, missing header — and, in repair mode, fixes
// what can be fixed (truncate-to-last-acknowledged for torn tails,
// re-fetch over the ingest protocol when a fleet peer holds a sealed
// copy) and quarantines what cannot. The package also owns the retention
// pass (retention.go), the background sweeper jportal serve runs
// (sweeper.go), and the deterministic disk-fault sweep behind jportal
// chaos -disk (disksweep.go).
//
// The scrubber's repair actions deliberately reuse the semantics the
// ingest server already has: truncating a session to its durable
// ingest.state frontier is exactly what the server's own restore() does
// on restart, so a scrub-repaired session and a server-restored one are
// indistinguishable to a resuming client, and the end-to-end seal CRC
// still guarantees the finished archive is byte-identical to the
// client's copy.
package scrub

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"jportal"
	"jportal/internal/ckpt"
	"jportal/internal/fault"
	"jportal/internal/ingest"
	"jportal/internal/ingest/client"
	"jportal/internal/iofault"
	"jportal/internal/metrics"
	"jportal/internal/streamfmt"
)

// QuarantineDirName is the dot-directory inside the data dir that damaged
// sessions are moved into. It starts with a dot so every data-dir walker
// (the fleet aggregator, retention, the scrubber itself) skips it as a
// session.
const QuarantineDirName = ".quarantine"

// Outcome classifies what the scrubber concluded about one session.
type Outcome string

// Session outcomes, from healthy to hopeless.
const (
	// OutcomeClean: sealed archive, every record framed, seal CRC matches.
	OutcomeClean Outcome = "clean"
	// OutcomeInProgress: unsealed but internally consistent — an upload
	// mid-flight. Not touched.
	OutcomeInProgress Outcome = "in_progress"
	// OutcomeTornTail: the file ends mid-record (or carries unacknowledged
	// bytes past the durable frontier) but the acknowledged prefix is
	// intact. Repair: truncate to the frontier, exactly like the ingest
	// server's own restart path.
	OutcomeTornTail Outcome = "torn_tail"
	// OutcomeCorrupt: damage inside the acknowledged prefix (or a seal
	// whose CRC does not cover the bytes on disk). Repair: re-fetch from a
	// peer's sealed copy, reset an unsealed upload to its header so the
	// client re-sends, or quarantine.
	OutcomeCorrupt Outcome = "corrupt"
	// OutcomeMissingMeta: the archive.meta header is absent or
	// unparseable; the session cannot be attributed or resumed.
	OutcomeMissingMeta Outcome = "missing_meta"
	// OutcomeSkipped: the session was busy (attached to a live server) or
	// too recently modified; scrubbing under a live writer would race it.
	OutcomeSkipped Outcome = "skipped"
)

// Action is the repair the scrubber applied (empty when reporting only).
type Action string

// Repair actions.
const (
	ActionTruncated   Action = "truncated"   // torn tail cut back to the durable frontier
	ActionRefetched   Action = "refetched"   // replaced via a peer's sealed copy over the ingest protocol
	ActionReset       Action = "reset"       // unsealed upload reset to its header for a clean re-send
	ActionQuarantined Action = "quarantined" // moved into .quarantine and ledgered
)

// Config configures one scrub pass.
type Config struct {
	// DataDir is the ingest data dir: one session archive per child dir.
	DataDir string
	// Repair applies repairs; false verifies and reports only.
	Repair bool
	// RateBytesPerSec bounds the verify read rate (token bucket over 64KiB
	// reads; 0 = unlimited). The scrubber shares the disk with live
	// ingest, so the default sweeper sets this.
	RateBytesPerSec int64
	// Busy, when set, reports whether a session is attached to a live
	// server (or has queued work); busy sessions are skipped.
	Busy func(id string) bool
	// MinIdle skips sessions whose files were modified within this window
	// — a writer the Busy hook cannot see may still be mid-append. 0
	// disables the check (tests).
	MinIdle time.Duration
	// PeerDirs are other fleet nodes' data dirs. A session whose local
	// copy is corrupt is re-fetched from the first peer holding a sealed,
	// clean copy, replayed over the ingest protocol into DataDir.
	PeerDirs []string
	// Ledger receives one typed entry per quarantined session (nil drops
	// them).
	Ledger *fault.Ledger
	// Registry receives the scrub_* counters (nil = metrics.Default).
	Registry *metrics.Registry
	// Logf receives one line per non-clean session (nil = silent).
	Logf func(format string, args ...any)

	// now and sleep are test hooks (nil = time.Now / time.Sleep).
	now   func() time.Time
	sleep func(d time.Duration)
}

// SessionReport is one session's verdict.
type SessionReport struct {
	ID      string
	Outcome Outcome
	Action  Action
	Detail  string
	Err     error // repair attempted and failed
}

// Report summarises one scrub pass. Sessions is sorted by ID, so the
// report is deterministic for a given data-dir state.
type Report struct {
	Sessions      []SessionReport
	Scanned       int
	BytesVerified int64
	Clean         int
	InProgress    int
	TornRepaired  int
	Refetched     int
	Reset         int
	Quarantined   int
	Damaged       int // non-clean sessions found (repaired or not)
}

func (c *Config) fill() error {
	if c.DataDir == "" {
		return errors.New("scrub: DataDir is required")
	}
	if c.Registry == nil {
		c.Registry = metrics.Default
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	return nil
}

// Run executes one scrub pass over cfg.DataDir.
func Run(cfg Config) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	limiter := newRateLimiter(cfg.RateBytesPerSec, cfg.sleep)
	rep := &Report{}
	var fetcher *peerFetcher
	defer func() {
		if fetcher != nil {
			fetcher.close()
		}
	}()
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		// Dot-dirs (.quarantine) and stray files are not sessions.
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		ids = append(ids, e.Name())
	}
	sort.Strings(ids)
	for _, id := range ids {
		sr := scrubSession(&cfg, rep, limiter, &fetcher, id)
		rep.Sessions = append(rep.Sessions, sr)
		rep.Scanned++
		cfg.Registry.Add(metrics.CounterScrubSessionsScanned, 1)
		switch sr.Outcome {
		case OutcomeClean:
			rep.Clean++
		case OutcomeInProgress:
			rep.InProgress++
		case OutcomeSkipped:
		default:
			rep.Damaged++
			cfg.Logf("scrub: session %q: %s (%s) %s", id, sr.Outcome, sr.Detail, sr.Action)
		}
		switch sr.Action {
		case ActionTruncated:
			rep.TornRepaired++
			cfg.Registry.Add(metrics.CounterScrubTornTails, 1)
		case ActionRefetched:
			rep.Refetched++
			cfg.Registry.Add(metrics.CounterScrubRefetched, 1)
		case ActionReset:
			rep.Reset++
			cfg.Registry.Add(metrics.CounterScrubReset, 1)
		case ActionQuarantined:
			rep.Quarantined++
			cfg.Registry.Add(metrics.CounterScrubQuarantined, 1)
		}
	}
	cfg.Registry.Add(metrics.CounterScrubBytesVerified, rep.BytesVerified)
	return rep, nil
}

// damage is the internal classification the stream walk produces.
type damage int

const (
	damageNone damage = iota
	damageTornTail
	damageCorrupt
	damageTrailing // bytes after a verified seal
)

// streamVerdict is everything the walk learned about one stream.jpt.
type streamVerdict struct {
	damage   damage
	detail   string
	size     int64 // file length
	lastGood int64 // boundary after the last structurally valid record
	sealEnd  int64 // boundary after a CRC-verified seal (0 = unsealed)
	// stateOK reports whether the durable frontier (when state is present)
	// names a record boundary whose running CRC matches — i.e. the
	// acknowledged prefix is intact.
	stateOK bool
}

// scrubSession verifies one session and (in repair mode) fixes it.
func scrubSession(cfg *Config, rep *Report, lim *rateLimiter, fetcher **peerFetcher, id string) SessionReport {
	sr := SessionReport{ID: id}
	dir := filepath.Join(cfg.DataDir, id)
	if cfg.Busy != nil && cfg.Busy(id) {
		sr.Outcome, sr.Detail = OutcomeSkipped, "session busy"
		return sr
	}
	if cfg.MinIdle > 0 {
		if mt, err := newestMtime(dir); err == nil && cfg.now().Sub(mt) < cfg.MinIdle {
			sr.Outcome, sr.Detail = OutcomeSkipped, "recently modified"
			return sr
		}
	}

	// The header first: without archive.meta the session cannot be
	// attributed (which backend decodes it?) or resumed, so the payload
	// does not matter.
	if _, err := jportal.ArchiveSourceID(dir); err != nil {
		sr.Outcome, sr.Detail = OutcomeMissingMeta, err.Error()
		if cfg.Repair {
			quarantine(cfg, &sr, id, fault.ReasonMissingMeta)
		}
		return sr
	}

	// Checkpoint envelopes ride along: a session.ckpt that fails its CRC
	// seal is pure dead weight (resume falls back to a full replay), so
	// repair mode deletes it rather than leaving a trap.
	scrubCheckpoints(cfg, &sr, dir)

	st, stErr := ingest.ReadSessionState(dir)
	haveState := stErr == nil
	data, err := readLimited(filepath.Join(dir, jportal.StreamFileName), lim)
	if err != nil {
		sr.Outcome, sr.Detail = OutcomeCorrupt, "stream unreadable: "+err.Error()
		repairCorrupt(cfg, &sr, id, haveState, st)
		return sr
	}
	rep.BytesVerified += int64(len(data))

	v := walkStream(data, haveState, st)
	switch v.damage {
	case damageNone:
		if v.sealEnd > 0 {
			sr.Outcome = OutcomeClean
		} else {
			sr.Outcome = OutcomeInProgress
		}
		return sr
	case damageTrailing:
		if haveState && !v.stateOK {
			// The junk past the seal comes with a frontier that matches
			// nothing — the state itself is damaged, not just the tail.
			break
		}
		// Bytes after a verified seal: the sealed prefix is complete, the
		// tail is noise. Truncating back to the seal is loss-free.
		sr.Outcome, sr.Detail = OutcomeTornTail, v.detail
		if cfg.Repair {
			truncateSession(cfg, &sr, dir, v.sealEnd, haveState, st, true)
		}
		return sr
	case damageTornTail:
		if haveState && !v.stateOK {
			// The walk tore before reaching the durable frontier (or the
			// frontier's checksum never matched): acknowledged bytes are
			// missing or rotten. Truncating "to the frontier" would
			// zero-extend the file — this is corruption, not a torn tail.
			break
		}
		sr.Outcome, sr.Detail = OutcomeTornTail, v.detail
		if cfg.Repair {
			target := v.lastGood
			if haveState {
				// Cut to the durable frontier, not the last whole record:
				// the frontier is what the resuming client's sequence
				// numbers are anchored to (the server's restore() makes the
				// same cut).
				target = st.Size
			}
			truncateSession(cfg, &sr, dir, target, haveState, st, false)
		}
		return sr
	}
	// Corrupt — by classification, or because a torn/trailing shape came
	// with a frontier that does not check out.
	if haveState && v.stateOK && v.damageOffsetPastFrontier(st) {
		// The rot is confined to unacknowledged bytes past the durable
		// frontier — the same shape as a torn tail, with the same
		// loss-free repair.
		sr.Outcome, sr.Detail = OutcomeTornTail, v.detail+" (past the durable frontier)"
		if cfg.Repair {
			truncateSession(cfg, &sr, dir, st.Size, haveState, st, false)
		}
		return sr
	}
	sr.Outcome, sr.Detail = OutcomeCorrupt, v.detail
	if cfg.Repair {
		if tryRefetch(cfg, &sr, fetcher, id) {
			return sr
		}
		repairCorrupt(cfg, &sr, id, haveState, st)
	}
	return sr
}

// damageOffsetPastFrontier reports whether the corruption starts at or
// past the durable frontier (lastGood is the boundary before the damage).
func (v *streamVerdict) damageOffsetPastFrontier(st ingest.SessionState) bool {
	return v.lastGood >= st.Size
}

// walkStream structurally verifies a stream.jpt image: record framing,
// the seal CRC, and — when the session has a durable frontier — that the
// frontier names a boundary whose running checksum matches.
func walkStream(data []byte, haveState bool, st ingest.SessionState) streamVerdict {
	v := streamVerdict{size: int64(len(data))}
	ncores, err := streamfmt.ParseHeader(data)
	if err != nil {
		if errors.Is(err, streamfmt.ErrShort) {
			v.damage, v.detail = damageTornTail, "stream shorter than its header"
			return v
		}
		v.damage, v.detail = damageCorrupt, err.Error()
		return v
	}
	cur := streamfmt.NewCursor(ncores)
	off := int64(streamfmt.HeaderLen)
	for {
		v.lastGood = off
		if haveState && off == st.Size && cur.CRC == st.CRC {
			v.stateOK = true
		}
		if off == v.size {
			break
		}
		if cur.Sealed {
			v.damage = damageTrailing
			v.detail = fmt.Sprintf("%d bytes after the seal", v.size-off)
			return v
		}
		n, err := cur.Step(data[off:])
		var seal *streamfmt.SealError
		switch {
		case errors.Is(err, streamfmt.ErrShort):
			v.damage = damageTornTail
			v.detail = fmt.Sprintf("file ends mid-record at byte %d of %d", off, v.size)
			return v
		case errors.As(err, &seal):
			v.damage = damageCorrupt
			v.detail = fmt.Sprintf("seal CRC %#08x does not match stream contents (%#08x)", seal.Want, seal.Got)
			return v
		case err != nil:
			v.damage = damageCorrupt
			v.detail = fmt.Sprintf("at byte %d: %v", off, err)
			return v
		}
		off += int64(n)
		if cur.Sealed {
			v.sealEnd = off
		}
	}
	if cur.Sealed {
		return v
	}
	// Every record framed, no seal: an in-flight upload — unless the
	// durable frontier claims bytes the file does not have, or names a
	// checksum the walk never saw.
	if haveState {
		if st.Size > v.size {
			v.damage = damageCorrupt
			v.detail = fmt.Sprintf("durable frontier at byte %d but the stream has only %d", st.Size, v.size)
			return v
		}
		if !v.stateOK {
			v.damage = damageCorrupt
			v.detail = fmt.Sprintf("durable frontier (byte %d, crc %#08x) does not lie on a matching record boundary", st.Size, st.CRC)
			return v
		}
		if st.Size < v.size {
			// Valid unacknowledged records past the frontier: the server
			// would drop them on restore; so does the scrubber.
			v.damage = damageTornTail
			v.detail = fmt.Sprintf("%d unacknowledged bytes past the durable frontier", v.size-st.Size)
			return v
		}
		if st.Sealed && v.sealEnd == 0 {
			v.damage = damageCorrupt
			v.detail = "frontier says sealed but the stream has no seal"
			return v
		}
	}
	return v
}

// truncateSession cuts the stream back to target and re-commits the
// durable frontier. sealed marks a truncation back to a verified seal
// (the archive is complete after the cut).
func truncateSession(cfg *Config, sr *SessionReport, dir string, target int64, haveState bool, st ingest.SessionState, sealed bool) {
	path := filepath.Join(dir, jportal.StreamFileName)
	if err := os.Truncate(path, target); err != nil {
		sr.Err = err
		return
	}
	if haveState && (st.Size != target || st.Sealed != (sealed || st.Sealed)) {
		st.Size = target
		if sealed {
			st.Sealed = true
		}
		// The CRC is unchanged: target is the frontier the state already
		// described, or a verified seal the walk checksummed.
		if err := ingest.WriteSessionState(dir, st); err != nil {
			sr.Err = err
			return
		}
	}
	sr.Action = ActionTruncated
}

// repairCorrupt is the no-peer fallback for a corrupt session: an
// unsealed upload is reset to its bare header (the client re-sends
// everything, and the end-to-end seal CRC guarantees the re-pushed
// archive); a sealed or stateless one has no sender coming back, so it
// is quarantined.
func repairCorrupt(cfg *Config, sr *SessionReport, id string, haveState bool, st ingest.SessionState) {
	if !cfg.Repair {
		return
	}
	dir := filepath.Join(cfg.DataDir, id)
	if haveState && !st.Sealed {
		path := filepath.Join(dir, jportal.StreamFileName)
		data, err := os.ReadFile(path)
		if err == nil {
			if _, herr := streamfmt.ParseHeader(data); herr == nil {
				if err := os.Truncate(path, streamfmt.HeaderLen); err == nil {
					if err := os.Remove(filepath.Join(dir, ingest.StateFileName)); err == nil || os.IsNotExist(err) {
						sr.Action = ActionReset
						return
					}
				}
			}
		}
	}
	quarantine(cfg, sr, id, fault.ReasonCorruptRecord)
}

// quarantine moves the session into DataDir/.quarantine and ledgers it.
func quarantine(cfg *Config, sr *SessionReport, id string, reason fault.Reason) {
	qdir := filepath.Join(cfg.DataDir, QuarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		sr.Err = err
		return
	}
	dst := filepath.Join(qdir, id)
	// A session can be quarantined at most once per id; a leftover from an
	// earlier sweep is older and strictly less useful than this copy.
	if err := os.RemoveAll(dst); err != nil {
		sr.Err = err
		return
	}
	if err := os.Rename(filepath.Join(cfg.DataDir, id), dst); err != nil {
		sr.Err = err
		return
	}
	sr.Action = ActionQuarantined
	cfg.Ledger.Add(fault.Entry{
		Reason: reason, Thread: -1, Core: -1,
		Detail: fmt.Sprintf("scrub: session %q: %s", id, sr.Detail),
	})
}

// scrubCheckpoints verifies any *.ckpt envelopes in the session dir. A
// checkpoint is an optimisation, never a correctness dependency, so a
// corrupt one is deleted in repair mode.
func scrubCheckpoints(cfg *Config, sr *SessionReport, dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	for _, path := range matches {
		if _, err := ckpt.ReadFile(iofault.OS, path); err != nil {
			if cfg.Repair {
				os.Remove(path)
				cfg.Logf("scrub: removed corrupt checkpoint %s: %v", path, err)
			}
			if sr.Detail == "" {
				sr.Detail = "corrupt checkpoint " + filepath.Base(path)
			}
		}
	}
}

// tryRefetch replaces a corrupt local session with a peer's sealed copy,
// replayed over the real ingest protocol (an in-process server on
// DataDir, a client push from the peer's files), so the repair exercises
// exactly the validation a live upload gets — including the seal CRC.
func tryRefetch(cfg *Config, sr *SessionReport, fetcher **peerFetcher, id string) bool {
	for _, peer := range cfg.PeerDirs {
		peerDir := filepath.Join(peer, id)
		data, err := os.ReadFile(filepath.Join(peerDir, jportal.StreamFileName))
		if err != nil {
			continue
		}
		if v := walkStream(data, false, ingest.SessionState{}); v.damage != damageNone || v.sealEnd == 0 {
			continue // peer copy unsealed or damaged itself
		}
		if *fetcher == nil {
			f, err := newPeerFetcher(cfg.DataDir)
			if err != nil {
				sr.Err = err
				return false
			}
			*fetcher = f
		}
		if err := os.RemoveAll(filepath.Join(cfg.DataDir, id)); err != nil {
			sr.Err = err
			return false
		}
		if err := (*fetcher).fetch(id, peerDir); err != nil {
			sr.Err = fmt.Errorf("refetch from %s: %w", peerDir, err)
			return false
		}
		sr.Action = ActionRefetched
		sr.Detail += "; restored from " + peerDir
		return true
	}
	return false
}

// peerFetcher is a lazily started loopback ingest server over the scrub
// target's data dir: refetches are ordinary archive pushes against it.
type peerFetcher struct {
	srv *ingest.Server
	ln  net.Listener
}

func newPeerFetcher(dataDir string) (*peerFetcher, error) {
	srv, err := ingest.NewServer(ingest.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	return &peerFetcher{srv: srv, ln: ln}, nil
}

func (f *peerFetcher) fetch(id, peerDir string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err := client.PushArchive(ctx, client.Options{
		Addr:      f.ln.Addr().String(),
		SessionID: id,
	}, peerDir)
	return err
}

func (f *peerFetcher) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.srv.Shutdown(ctx)
}

// newestMtime returns the latest modification time of any file directly
// inside dir.
func newestMtime(dir string) (time.Time, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return time.Time{}, err
	}
	var newest time.Time
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			continue
		}
		if fi.ModTime().After(newest) {
			newest = fi.ModTime()
		}
	}
	return newest, nil
}

// rateLimiter is a token bucket over read bytes: the scrubber shares its
// disk with live ingest, so verification I/O is paced, not greedy.
type rateLimiter struct {
	perSec int64
	sleep  func(time.Duration)
	debt   int64
}

func newRateLimiter(perSec int64, sleep func(time.Duration)) *rateLimiter {
	return &rateLimiter{perSec: perSec, sleep: sleep}
}

// take charges n bytes against the budget, sleeping once a full second
// of budget has been consumed.
func (l *rateLimiter) take(n int64) {
	if l == nil || l.perSec <= 0 {
		return
	}
	l.debt += n
	for l.debt >= l.perSec {
		l.sleep(time.Second)
		l.debt -= l.perSec
	}
}

// scrubReadChunk is the unit of paced verification I/O.
const scrubReadChunk = 64 << 10

// readLimited reads path through the limiter in scrubReadChunk pieces.
func readLimited(path string, lim *rateLimiter) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []byte
	buf := make([]byte, scrubReadChunk)
	for {
		n, err := f.Read(buf)
		out = append(out, buf[:n]...)
		lim.take(int64(n))
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// FormatReport renders a scrub report deterministically.
func FormatReport(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scrub: %d sessions, %d bytes verified\n", rep.Scanned, rep.BytesVerified)
	fmt.Fprintf(&b, "  clean %d  in-progress %d  damaged %d\n", rep.Clean, rep.InProgress, rep.Damaged)
	fmt.Fprintf(&b, "  repaired: truncated %d  refetched %d  reset %d  quarantined %d\n",
		rep.TornRepaired, rep.Refetched, rep.Reset, rep.Quarantined)
	for _, s := range rep.Sessions {
		if s.Outcome == OutcomeClean || s.Outcome == OutcomeInProgress {
			continue
		}
		fmt.Fprintf(&b, "  %-24s %-12s %-12s %s\n", s.ID, s.Outcome, s.Action, s.Detail)
		if s.Err != nil {
			fmt.Fprintf(&b, "  %-24s repair error: %v\n", "", s.Err)
		}
	}
	return b.String()
}
