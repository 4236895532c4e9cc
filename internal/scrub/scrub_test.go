package scrub

// White-box tests of the scrub classify-and-repair state machine. The
// archives are synthetic (the scrubber verifies structure, not run
// semantics); the end-to-end SIGKILL-resume-repair test lives in the repo
// root's scrub e2e test.

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"jportal"
	"jportal/internal/bytecode"
	"jportal/internal/fault"
	"jportal/internal/ingest"
	"jportal/internal/iofault"
	"jportal/internal/metrics"
	"jportal/internal/source"
	"jportal/internal/streamfmt"
	"jportal/internal/vm"
)

func testProgramGob(t *testing.T) []byte {
	t.Helper()
	prog := bytecode.MustAssemble(`
method T.main(0) {
    return
}
entry T.main
`)
	gob, err := jportal.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return gob
}

// buildStream returns a complete, sealed synthetic stream.
func buildStream(t *testing.T, ncores, nchunks int) []byte {
	t.Helper()
	var buf bytes.Buffer
	e, err := streamfmt.NewEncoder(&buf, ncores)
	if err != nil {
		t.Fatal(err)
	}
	e.AddSideband([]vm.SwitchRecord{{TSC: 1, Core: 0, Thread: 1}})
	for i := 0; i < nchunks; i++ {
		items := []source.Item{
			{Packet: source.Packet{Kind: 1, IP: uint64(0x4000 + i), NBits: 5, Bits: uint64(i)}},
			{Packet: source.Packet{Kind: 2, IP: uint64(0x5000 + i)}},
		}
		if err := e.Feed(i%ncores, items); err != nil {
			t.Fatal(err)
		}
		e.Watermark(i%ncores, uint64(i+1)*100)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeSession materialises a session dir: archive.meta, program.gob, the
// stream image, and (unless seq is 0) an ingest.state describing frontier
// bytes of it.
func writeSession(t *testing.T, dataDir, id string, gob, stream []byte, seq uint64, frontier int64, sealed bool) string {
	t.Helper()
	dir := filepath.Join(dataDir, id)
	if err := jportal.InitChunkedArchiveDir(dir, "", iofault.OS); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, jportal.ProgramFileName), gob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, jportal.StreamFileName), stream, 0o644); err != nil {
		t.Fatal(err)
	}
	if seq > 0 {
		crcLen := frontier
		if sealed {
			crcLen -= 5 // the seal record is outside the running CRC
		}
		st := ingest.SessionState{
			Seq: seq, Size: frontier,
			CRC:    crc32.ChecksumIEEE(stream[:crcLen]),
			Sealed: sealed,
		}
		if err := ingest.WriteSessionState(dir, st); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// boundaryAt returns the byte offset after the first n records.
func boundaryAt(t *testing.T, stream []byte, n int) int64 {
	t.Helper()
	off := streamfmt.HeaderLen
	for i := 0; i < n; i++ {
		m, err := streamfmt.Scan(stream[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += m
	}
	return int64(off)
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func streamBytes(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, jportal.StreamFileName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestScrubCleanSealedUntouched(t *testing.T) {
	dataDir := t.TempDir()
	stream := buildStream(t, 2, 8)
	dir := writeSession(t, dataDir, "clean", testProgramGob(t), stream, 9, int64(len(stream)), true)

	rep := mustRun(t, Config{DataDir: dataDir, Repair: true, Registry: metrics.NewRegistry()})
	if rep.Clean != 1 || rep.Damaged != 0 {
		t.Fatalf("clean=%d damaged=%d, want 1/0\n%s", rep.Clean, rep.Damaged, FormatReport(rep))
	}
	if got := streamBytes(t, dir); !bytes.Equal(got, stream) {
		t.Fatal("scrub modified a clean archive")
	}
	if rep.BytesVerified != int64(len(stream)) {
		t.Fatalf("BytesVerified = %d, want %d", rep.BytesVerified, len(stream))
	}
}

func TestScrubTornTailTruncatesToFrontier(t *testing.T) {
	dataDir := t.TempDir()
	full := buildStream(t, 1, 6)
	records := full[:len(full)-5] // unsealed: upload still in flight
	frontier := boundaryAt(t, records, 4)
	// Past the frontier: one whole unacknowledged record, then a torn one.
	n, err := streamfmt.Scan(records[frontier:])
	if err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), records[:frontier+int64(n)]...)
	img = append(img, records[frontier:frontier+5]...) // partial record tail
	dir := writeSession(t, dataDir, "torn", testProgramGob(t), img, 5, frontier, false)
	// writeSession computed the CRC over img[:frontier] — the acked prefix.

	rep := mustRun(t, Config{DataDir: dataDir, Repair: true, Registry: metrics.NewRegistry()})
	if rep.TornRepaired != 1 {
		t.Fatalf("TornRepaired = %d\n%s", rep.TornRepaired, FormatReport(rep))
	}
	if got := streamBytes(t, dir); !bytes.Equal(got, records[:frontier]) {
		t.Fatalf("repaired stream is %d bytes, want the %d-byte acked prefix", len(got), frontier)
	}
	st, err := ingest.ReadSessionState(dir)
	if err != nil || st.Size != frontier || st.Seq != 5 {
		t.Fatalf("state after repair: %+v, %v", st, err)
	}
}

func TestScrubTrailingAfterSealTruncates(t *testing.T) {
	dataDir := t.TempDir()
	stream := buildStream(t, 1, 4)
	img := append(append([]byte(nil), stream...), 0xDE, 0xAD, 0xBE)
	dir := writeSession(t, dataDir, "trail", testProgramGob(t), img, 6, int64(len(stream)), true)
	// State describes the sealed prefix, not the junk: writeSession's CRC
	// covers img[:len(stream)-5], which equals the sealed stream's.
	st := ingest.SessionState{Seq: 6, Size: int64(len(stream)),
		CRC: crc32.ChecksumIEEE(stream[:len(stream)-5]), Sealed: true}
	if err := ingest.WriteSessionState(dir, st); err != nil {
		t.Fatal(err)
	}

	rep := mustRun(t, Config{DataDir: dataDir, Repair: true, Registry: metrics.NewRegistry()})
	if rep.TornRepaired != 1 {
		t.Fatalf("TornRepaired = %d\n%s", rep.TornRepaired, FormatReport(rep))
	}
	if got := streamBytes(t, dir); !bytes.Equal(got, stream) {
		t.Fatal("trailing junk not cut back to the seal")
	}
}

func TestScrubCorruptSealedQuarantines(t *testing.T) {
	dataDir := t.TempDir()
	stream := buildStream(t, 1, 4)
	img := append([]byte(nil), stream...)
	img[streamfmt.HeaderLen] ^= 0xFF // first record tag
	led := fault.NewLedger(metrics.NewRegistry())
	writeSession(t, dataDir, "rotten", testProgramGob(t), img, 6, int64(len(img)), true)

	reg := metrics.NewRegistry()
	rep := mustRun(t, Config{DataDir: dataDir, Repair: true, Registry: reg, Ledger: led})
	if rep.Quarantined != 1 {
		t.Fatalf("Quarantined = %d\n%s", rep.Quarantined, FormatReport(rep))
	}
	if _, err := os.Stat(filepath.Join(dataDir, QuarantineDirName, "rotten", jportal.StreamFileName)); err != nil {
		t.Fatalf("quarantined session not moved: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "rotten")); !os.IsNotExist(err) {
		t.Fatal("original session dir still present")
	}
	if n := led.Count(fault.ReasonCorruptRecord); n != 1 {
		t.Fatalf("ledger corrupt_record = %d, want 1", n)
	}
	if got := reg.Snapshot()[metrics.CounterScrubQuarantined]; got != 1 {
		t.Fatalf("%s = %d, want 1", metrics.CounterScrubQuarantined, got)
	}
}

func TestScrubMissingMetaQuarantines(t *testing.T) {
	dataDir := t.TempDir()
	dir := filepath.Join(dataDir, "noid")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A stream with no archive.meta: not attributable.
	if err := os.WriteFile(filepath.Join(dir, jportal.StreamFileName), buildStream(t, 1, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	led := fault.NewLedger(metrics.NewRegistry())
	rep := mustRun(t, Config{DataDir: dataDir, Repair: true, Registry: metrics.NewRegistry(), Ledger: led})
	if rep.Quarantined != 1 || rep.Sessions[0].Outcome != OutcomeMissingMeta {
		t.Fatalf("want one missing_meta quarantine\n%s", FormatReport(rep))
	}
	if n := led.Count(fault.ReasonMissingMeta); n != 1 {
		t.Fatalf("ledger missing_meta = %d, want 1", n)
	}
}

func TestScrubResetsCorruptUnsealedUpload(t *testing.T) {
	dataDir := t.TempDir()
	full := buildStream(t, 1, 6)
	records := full[:len(full)-5]
	frontier := boundaryAt(t, records, 3)
	img := append([]byte(nil), records[:frontier]...)
	img[streamfmt.HeaderLen+1] ^= 0xFF // corrupt inside the acked prefix
	dir := writeSession(t, dataDir, "resend", testProgramGob(t), img, 4, frontier, false)
	// Overwrite the state with the CRC of the *uncorrupted* prefix, as the
	// server would have recorded before the disk rotted.
	st := ingest.SessionState{Seq: 4, Size: frontier, CRC: crc32.ChecksumIEEE(records[:frontier])}
	if err := ingest.WriteSessionState(dir, st); err != nil {
		t.Fatal(err)
	}

	rep := mustRun(t, Config{DataDir: dataDir, Repair: true, Registry: metrics.NewRegistry()})
	if rep.Reset != 1 {
		t.Fatalf("Reset = %d\n%s", rep.Reset, FormatReport(rep))
	}
	got := streamBytes(t, dir)
	if int64(len(got)) != streamfmt.HeaderLen {
		t.Fatalf("reset stream is %d bytes, want the bare %d-byte header", len(got), streamfmt.HeaderLen)
	}
	if _, err := ingest.ReadSessionState(dir); !os.IsNotExist(err) {
		t.Fatalf("ingest.state should be removed after reset, got %v", err)
	}
}

// TestScrubRefetchFromPeer: a corrupt sealed session is replaced by a
// fleet peer's clean copy, replayed over the real ingest protocol, and
// comes out byte-identical to the peer's bytes.
func TestScrubRefetchFromPeer(t *testing.T) {
	dataDir, peerDir := t.TempDir(), t.TempDir()
	gob := testProgramGob(t)
	stream := buildStream(t, 2, 10)
	writeSession(t, peerDir, "shared", gob, stream, 12, int64(len(stream)), true)

	img := append([]byte(nil), stream...)
	img[streamfmt.HeaderLen] ^= 0xFF
	writeSession(t, dataDir, "shared", gob, img, 12, int64(len(img)), true)

	rep := mustRun(t, Config{
		DataDir:  dataDir,
		Repair:   true,
		PeerDirs: []string{peerDir},
		Registry: metrics.NewRegistry(),
	})
	if rep.Refetched != 1 {
		t.Fatalf("Refetched = %d\n%s", rep.Refetched, FormatReport(rep))
	}
	dir := filepath.Join(dataDir, "shared")
	if got := streamBytes(t, dir); !bytes.Equal(got, stream) {
		t.Fatal("refetched stream differs from the peer's sealed copy")
	}
	gotGob, err := os.ReadFile(filepath.Join(dir, jportal.ProgramFileName))
	if err != nil || !bytes.Equal(gotGob, gob) {
		t.Fatalf("refetched program differs: %v", err)
	}
	// A second scrub must find nothing to do.
	rep2 := mustRun(t, Config{DataDir: dataDir, Repair: true, Registry: metrics.NewRegistry()})
	if rep2.Damaged != 0 {
		t.Fatalf("refetched session still damaged\n%s", FormatReport(rep2))
	}
}

func TestScrubReportOnlyDoesNotMutate(t *testing.T) {
	dataDir := t.TempDir()
	stream := buildStream(t, 1, 4)
	img := append(append([]byte(nil), stream...), 0x01, 0x02)
	dir := writeSession(t, dataDir, "look", testProgramGob(t), img, 6, int64(len(stream)), true)
	st := ingest.SessionState{Seq: 6, Size: int64(len(stream)),
		CRC: crc32.ChecksumIEEE(stream[:len(stream)-5]), Sealed: true}
	if err := ingest.WriteSessionState(dir, st); err != nil {
		t.Fatal(err)
	}

	rep := mustRun(t, Config{DataDir: dataDir, Repair: false, Registry: metrics.NewRegistry()})
	if rep.Damaged != 1 || rep.TornRepaired != 0 {
		t.Fatalf("damaged=%d repaired=%d, want 1/0", rep.Damaged, rep.TornRepaired)
	}
	if got := streamBytes(t, dir); !bytes.Equal(got, img) {
		t.Fatal("report-only scrub modified the stream")
	}
}

func TestScrubSkipsBusySessions(t *testing.T) {
	dataDir := t.TempDir()
	stream := buildStream(t, 1, 4)
	img := append(append([]byte(nil), stream...), 0x01)
	writeSession(t, dataDir, "busy", testProgramGob(t), img, 6, int64(len(stream)), true)

	rep := mustRun(t, Config{
		DataDir:  dataDir,
		Repair:   true,
		Busy:     func(id string) bool { return id == "busy" },
		Registry: metrics.NewRegistry(),
	})
	if len(rep.Sessions) != 1 || rep.Sessions[0].Outcome != OutcomeSkipped {
		t.Fatalf("busy session not skipped\n%s", FormatReport(rep))
	}
	if rep.Damaged != 0 {
		t.Fatal("skipped session counted as damaged")
	}
}

func TestScrubTornShorterThanFrontierIsCorrupt(t *testing.T) {
	dataDir := t.TempDir()
	full := buildStream(t, 1, 6)
	records := full[:len(full)-5]
	frontier := boundaryAt(t, records, 4)
	// The file lost acknowledged bytes: it ends (mid-record) before the
	// durable frontier. Truncate-to-frontier would zero-extend — this must
	// classify as corrupt, and (unsealed, header intact) reset.
	img := append([]byte(nil), records[:frontier-3]...)
	dir := writeSession(t, dataDir, "short", testProgramGob(t), img, 5, frontier, false)
	st := ingest.SessionState{Seq: 5, Size: frontier, CRC: crc32.ChecksumIEEE(records[:frontier])}
	if err := ingest.WriteSessionState(dir, st); err != nil {
		t.Fatal(err)
	}

	rep := mustRun(t, Config{DataDir: dataDir, Repair: true, Registry: metrics.NewRegistry()})
	if rep.TornRepaired != 0 {
		t.Fatalf("zero-extending truncation applied\n%s", FormatReport(rep))
	}
	if rep.Reset != 1 {
		t.Fatalf("Reset = %d\n%s", rep.Reset, FormatReport(rep))
	}
	if got := streamBytes(t, dir); int64(len(got)) != streamfmt.HeaderLen {
		t.Fatalf("stream is %d bytes after reset, want %d", len(got), streamfmt.HeaderLen)
	}
}

func TestRateLimiterPaces(t *testing.T) {
	var slept []time.Duration
	lim := newRateLimiter(1000, func(d time.Duration) { slept = append(slept, d) })
	lim.take(2500)
	if len(slept) != 2 {
		t.Fatalf("slept %d times for 2.5s of budget, want 2", len(slept))
	}
	lim.take(400) // debt 900: under budget, no sleep
	if len(slept) != 2 {
		t.Fatalf("slept early at %d bytes of debt", 900)
	}
	// Rate 0 disables pacing entirely.
	lim0 := newRateLimiter(0, func(time.Duration) { t.Fatal("rate 0 slept") })
	lim0.take(1 << 30)
}

func TestScrubRemovesCorruptCheckpoint(t *testing.T) {
	dataDir := t.TempDir()
	stream := buildStream(t, 1, 4)
	dir := writeSession(t, dataDir, "ck", testProgramGob(t), stream, 6, int64(len(stream)), true)
	if err := os.WriteFile(filepath.Join(dir, "session.ckpt"), []byte("definitely not sealed"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, Config{DataDir: dataDir, Repair: true, Registry: metrics.NewRegistry()})
	if rep.Clean != 1 {
		t.Fatalf("archive should stay clean\n%s", FormatReport(rep))
	}
	if _, err := os.Stat(filepath.Join(dir, "session.ckpt")); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint not removed")
	}
}
