package scrub

import (
	"testing"

	"jportal/internal/ingest/client"
	"jportal/internal/streamfmt"
)

// TestDiskSweepDeterministic pins the chaos -disk acceptance invariant:
// for a fixed seed the sweep table is byte-identical run to run, and at
// rate 0 (no faults) every upload completes and every final archive is
// byte-identical to the source.
func TestDiskSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("spins fault-injected ingest servers")
	}
	srcData := t.TempDir()
	stream := buildStream(t, 2, 200)
	archiveDir := writeSession(t, srcData, "src", testProgramGob(t), stream, 0, 0, false)
	if frames, err := client.ChunkFrames(stream[streamfmt.HeaderLen:], sweepChunkBytes); err != nil || len(frames) < 2 {
		t.Fatalf("sweep archive too small: %d frames, %v", len(frames), err)
	}

	cfg := DiskSweepConfig{
		ArchiveDir: archiveDir,
		Seed:       42,
		Rates:      []float64{0, 1},
		Sessions:   1,
	}
	rows1, err := DiskSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := DiskSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t1 := FormatDiskSweep("test", cfg.Seed, rows1)
	t2 := FormatDiskSweep("test", cfg.Seed, rows2)
	if t1 != t2 {
		t.Fatalf("sweep table differs across runs with the same seed:\n--- run 1\n%s--- run 2\n%s", t1, t2)
	}

	// Rate 0: pointer-identical passthrough storage — everything completes
	// and matches, the planted casualties are repaired/quarantined.
	r0 := rows1[0]
	if r0.Completed != r0.Sessions {
		t.Fatalf("rate 0: %d/%d uploads completed\n%s", r0.Completed, r0.Sessions, t1)
	}
	if r0.Identical != r0.Sessions {
		t.Fatalf("rate 0: %d/%d archives byte-identical\n%s", r0.Identical, r0.Sessions, t1)
	}
	if r0.Repaired != 1 || r0.Quarantined != 1 {
		t.Fatalf("rate 0: repaired=%d quarantined=%d, want 1/1\n%s", r0.Repaired, r0.Quarantined, t1)
	}
	// At every rate: an upload that completed must be byte-identical.
	for _, r := range rows1 {
		if r.Corrupt != 0 {
			t.Fatalf("rate %g: %d completed uploads are not byte-identical\n%s", r.Rate, r.Corrupt, t1)
		}
	}
}
