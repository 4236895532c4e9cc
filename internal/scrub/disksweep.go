package scrub

// The disk-fault sweep behind `jportal chaos -disk`: push an archive
// through an in-process ingest server whose storage runs behind a seeded
// iofault injector, once per rate, then scrub-and-repair two crafted
// casualties — a torn-tail session (SIGKILL-mid-record shape) and a
// corrupt sealed one — and report outcome invariants only. For a fixed
// seed the table is byte-identical run to run: per-scope fault streams
// make each session's verdicts a pure function of its own op sequence,
// and sessions push sequentially, exactly like the netfault fleet sweep.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"jportal"
	"jportal/internal/ingest"
	"jportal/internal/ingest/client"
	"jportal/internal/iofault"
	"jportal/internal/metrics"
	"jportal/internal/streamfmt"
)

// DiskSweepConfig configures one `jportal chaos -disk` sweep.
type DiskSweepConfig struct {
	// ArchiveDir is a sealed archive (jportal collect output) to
	// push through the faulted storage.
	ArchiveDir string
	// SourceID is the archive's trace-source backend ("" = default).
	SourceID string
	// Seed feeds the iofault matrix.
	Seed uint64
	// Rates are the iofault.DefaultMatrix scale factors to sweep.
	Rates []float64
	// Sessions is how many clean-path sessions to push per rate
	// (default 2). One torn-tail victim rides along on top of these.
	Sessions int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// DiskSweepRow is one rate's outcome: invariants only (counts, not
// timings), so the table is byte-comparable in CI.
type DiskSweepRow struct {
	Rate        float64
	Matrix      iofault.Matrix
	Sessions    int // pushed sessions + the torn-tail victim
	Completed   int // uploads that finished (including the victim's resume)
	Repaired    int // scrub torn-tail truncations
	Quarantined int // scrub quarantines (the corrupt sealed casualty)
	Identical   int // final archives byte-identical to the source
	// Corrupt counts uploads that reported completion but whose archive is
	// NOT byte-identical to the source — silent corruption. The durability
	// invariant is Corrupt == 0 at every rate: under sustained injected
	// EIO/ENOSPC an upload may fail outright (the session poisons after
	// repeated persist failures — honest data loss the client sees), but a
	// success must mean the bytes are right.
	Corrupt int
}

// sweepChunkBytes is the client chunking used for every push in the
// sweep and for crafting the torn victim's frontier: the two must agree
// so the victim's resumed frames line up with its fabricated state.
const sweepChunkBytes = 4096

// DiskSweep runs the sweep.
func DiskSweep(cfg DiskSweepConfig) ([]DiskSweepRow, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{0, 1, 2}
	}
	rows := make([]DiskSweepRow, 0, len(cfg.Rates))
	for _, rate := range cfg.Rates {
		row, err := diskSweepOnce(cfg, rate)
		if err != nil {
			return rows, fmt.Errorf("disk sweep at rate %g: %w", rate, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func diskSweepOnce(cfg DiskSweepConfig, rate float64) (DiskSweepRow, error) {
	row := DiskSweepRow{
		Rate:     rate,
		Matrix:   iofault.DefaultMatrix(cfg.Seed).Scale(rate),
		Sessions: cfg.Sessions + 1, // + the torn-tail victim
	}
	inj := iofault.NewInjector(row.Matrix, metrics.Default)

	dataDir, err := os.MkdirTemp("", "jportal-chaos-disk-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dataDir)

	// Phase 1: clean-path uploads under injected storage faults. The
	// client retries through the sheds; graceful degradation means every
	// upload still completes and archives byte-identical.
	var ids []string
	done := make(map[string]bool)
	err = withIngestServer(dataDir, inj, func(addr string) error {
		for i := 0; i < cfg.Sessions; i++ {
			id := fmt.Sprintf("chaos-disk-%d", i)
			ids = append(ids, id)
			if pushSweepSession(cfg, addr, id) {
				row.Completed++
				done[id] = true
			} else {
				cfg.Logf("chaos -disk: rate %g session %s did not complete", rate, id)
			}
		}
		return nil
	})
	if err != nil {
		return row, err
	}

	// Phase 2: plant the casualties. The torn victim has the exact shape
	// a SIGKILL mid-record leaves behind — durable frontier at a verified
	// boundary, a partial record past it. The mangled one is a sealed
	// archive with a flipped byte inside the acknowledged prefix and no
	// peer holding a copy: unrepairable, so it must be quarantined.
	const victimID = "chaos-disk-victim"
	if err := craftTornVictim(dataDir, victimID, cfg.ArchiveDir); err != nil {
		return row, err
	}
	if err := craftMangled(dataDir, "chaos-disk-mangled", cfg.ArchiveDir); err != nil {
		return row, err
	}

	// Phase 3: scrub and repair (plain OS — repairs must always work).
	rep, err := Run(Config{DataDir: dataDir, Repair: true, Logf: cfg.Logf})
	if err != nil {
		return row, err
	}
	row.Repaired = rep.TornRepaired
	row.Quarantined = rep.Quarantined

	// Phase 4: the repaired victim resumes its upload — through the same
	// injector, continuing its fault stream — and must finish
	// byte-identical like everyone else.
	ids = append(ids, victimID)
	err = withIngestServer(dataDir, inj, func(addr string) error {
		if pushSweepSession(cfg, addr, victimID) {
			row.Completed++
			done[victimID] = true
		} else {
			cfg.Logf("chaos -disk: rate %g victim resume did not complete", rate)
		}
		return nil
	})
	if err != nil {
		return row, err
	}

	for _, id := range ids {
		identical := jportal.SameArchive(cfg.ArchiveDir, filepath.Join(dataDir, id)) == nil
		if identical {
			row.Identical++
		}
		if done[id] && !identical {
			row.Corrupt++
			cfg.Logf("chaos -disk: rate %g session %s completed but is not byte-identical", rate, id)
		}
	}
	return row, nil
}

// withIngestServer runs fn against a loopback ingest server over dataDir
// whose storage goes through inj, then drains it.
func withIngestServer(dataDir string, inj *iofault.Injector, fn func(addr string) error) error {
	srv, err := ingest.NewServer(ingest.Config{DataDir: dataDir, IOFault: inj})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
	}()
	return fn(ln.Addr().String())
}

// pushSweepSession pushes the sweep archive as one session, absorbing
// fault-induced retries. Completion, not latency, is the invariant.
func pushSweepSession(cfg DiskSweepConfig, addr, id string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err := client.PushArchive(ctx, client.Options{
		Addr:          addr,
		SessionID:     id,
		SourceID:      cfg.SourceID,
		MaxChunkBytes: sweepChunkBytes,
		MaxAttempts:   200,
		Backoff:       2 * time.Millisecond,
		MaxBackoff:    50 * time.Millisecond,
		RetryBudget:   -1, // the sweep measures storage survival, not client patience
	}, cfg.ArchiveDir)
	if err != nil {
		cfg.Logf("chaos -disk: session %s: %v", id, err)
		return false
	}
	return true
}

// craftTornVictim fabricates the on-disk shape of a session whose server
// died mid-record: archive.meta and program.gob verbatim from the source
// archive, a stream holding the first half of the client's frames plus a
// partial record, and an ingest.state frontier pointing at the boundary
// before the tear.
func craftTornVictim(dataDir, id, archiveDir string) error {
	stream, program, meta, err := readSweepArchive(archiveDir)
	if err != nil {
		return err
	}
	frames, err := client.ChunkFrames(stream[streamfmt.HeaderLen:], sweepChunkBytes)
	if err != nil {
		return err
	}
	if len(frames) < 2 {
		return errors.New("scrub: sweep archive too small to tear (need at least two frames)")
	}
	c := len(frames) / 2 // chunk frames already acknowledged
	dir := filepath.Join(dataDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, jportal.MetaFileName), meta, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, jportal.ProgramFileName), program, 0o644); err != nil {
		return err
	}
	img := append([]byte(nil), stream[:streamfmt.HeaderLen]...)
	for _, f := range frames[:c] {
		img = append(img, f...)
	}
	frontier := int64(len(img))
	cur, err := streamfmt.Walk(img)
	if err != nil {
		return err
	}
	// The torn tail: the next frame's first record, missing its last byte
	// (every record is at least 5 bytes, so the cut is always mid-record).
	next := frames[c]
	n, err := streamfmt.Scan(next)
	if err != nil {
		return err
	}
	img = append(img, next[:n-1]...)
	if err := os.WriteFile(filepath.Join(dir, jportal.StreamFileName), img, 0o644); err != nil {
		return err
	}
	// Frame seq 1 is the program; chunk frames follow, so c acknowledged
	// chunk frames put the frontier at seq 1+c.
	return ingest.WriteSessionState(dir, ingest.SessionState{
		Seq: uint64(1 + c), Size: frontier, CRC: cur.CRC, Sealed: false,
	})
}

// craftMangled fabricates a sealed session with a flipped byte inside the
// acknowledged prefix: unrepairable without a peer copy.
func craftMangled(dataDir, id, archiveDir string) error {
	stream, program, meta, err := readSweepArchive(archiveDir)
	if err != nil {
		return err
	}
	dir := filepath.Join(dataDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, jportal.MetaFileName), meta, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, jportal.ProgramFileName), program, 0o644); err != nil {
		return err
	}
	cur, err := streamfmt.Walk(stream)
	if err != nil {
		return err
	}
	img := append([]byte(nil), stream...)
	img[streamfmt.HeaderLen] ^= 0xFF // first record's tag byte
	if err := os.WriteFile(filepath.Join(dir, jportal.StreamFileName), img, 0o644); err != nil {
		return err
	}
	return ingest.WriteSessionState(dir, ingest.SessionState{
		Seq: 1, Size: int64(len(img)), CRC: cur.CRC, Sealed: true,
	})
}

func readSweepArchive(archiveDir string) (stream, program, meta []byte, err error) {
	stream, err = os.ReadFile(filepath.Join(archiveDir, jportal.StreamFileName))
	if err != nil {
		return nil, nil, nil, err
	}
	program, err = os.ReadFile(filepath.Join(archiveDir, jportal.ProgramFileName))
	if err != nil {
		return nil, nil, nil, err
	}
	meta, err = os.ReadFile(filepath.Join(archiveDir, jportal.MetaFileName))
	if err != nil {
		return nil, nil, nil, err
	}
	return stream, program, meta, nil
}

// FormatDiskSweep renders the sweep table: outcome invariants plus the
// (rate-determined) matrix columns, byte-identical per seed.
func FormatDiskSweep(subject string, seed uint64, rows []DiskSweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== chaos -disk: %s (seed %d) ===\n", subject, seed)
	fmt.Fprintf(&b, "%-6s %-9s %-10s %-9s %-12s %-10s %-8s %-8s %-8s %-8s\n",
		"rate", "sessions", "completed", "repaired", "quarantined", "identical", "corrupt", "enospc", "torn", "write")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6.2f %-9d %-10d %-9d %-12d %-10d %-8d %-8.3f %-8.3f %-8.3f\n",
			r.Rate, r.Sessions, r.Completed, r.Repaired, r.Quarantined, r.Identical, r.Corrupt,
			r.Matrix.ENOSPC, r.Matrix.TornWrite, r.Matrix.WriteErr)
	}
	return b.String()
}
