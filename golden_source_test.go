package jportal

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"jportal/internal/core"
	"jportal/internal/source"
	"jportal/internal/workload"
)

// goldenFixtureFile pins both trace sources byte for byte. The PT entries
// (keyed "<subject>/...") were generated before internal/source existed;
// the E-Trace entries (keyed "riscv-etrace/<subject>/...") before the two
// backends shared one collector and one decoder. A passing run proves the
// pipeline still writes byte-identical archives and the exact same
// analysis for every subject on every source. Regenerate (only when
// intentionally changing the formats) with
//
//	GOLDEN_UPDATE=1 go test -run TestGoldenByteIdentity .
const goldenFixtureFile = "testdata/golden_pt.json"

// goldenRunConfig is the deterministic configuration the fixture was
// recorded under: small buffers so the loss/recovery path is exercised.
func goldenRunConfig() RunConfig {
	rcfg := DefaultRunConfig()
	rcfg.CollectOracle = false
	rcfg.PT.BufBytes = 16 << 10
	rcfg.SinkChunkItems = 64
	return rcfg
}

// hashDir hashes every file in dir (sorted names, name + content) so any
// byte change in any archive file — including archive.meta — shows up.
func hashDir(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		f, err := os.Open(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00", n)
		if _, err := io.Copy(h, f); err != nil {
			f.Close()
			t.Fatal(err)
		}
		f.Close()
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashAnalysis digests everything equalAnalyses compares: per-thread steps,
// fills, flows and decode statistics (wall-clock timings excluded).
func hashAnalysis(an *Analysis) string {
	h := sha256.New()
	for _, th := range an.Threads {
		fmt.Fprintf(h, "thread %d decoded %d recovered %d\n", th.Thread, th.DecodedSteps, th.RecoveredSteps)
		fmt.Fprintf(h, "decode %+v\n", th.Decode)
		for _, s := range th.Steps {
			fmt.Fprintf(h, "s %d %d %d %v\n", s.Method, s.PC, s.TSC, s.Recovered)
		}
		for _, fl := range th.Fills {
			fmt.Fprintf(h, "fill %d %d\n", fl.Method, len(fl.Steps))
			for _, s := range fl.Steps {
				fmt.Fprintf(h, "f %d %d %d\n", s.Method, s.PC, s.TSC)
			}
		}
		for _, fw := range th.Flows {
			fmt.Fprintf(h, "flow %v runs %d skipped %d\n", fw.Nodes, fw.Runs, fw.Skipped)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenByteIdentity runs every subject on every registered trace
// source through the archive and the analysis pipeline and compares the
// resulting hashes against the fixture.
func TestGoldenByteIdentity(t *testing.T) {
	got := make(map[string]string)
	for _, id := range source.Registered() {
		prefix := id + "/"
		if id == source.DefaultID {
			prefix = "" // the PT entries predate the source layer
		}
		for _, name := range workload.Names() {
			s := workload.MustLoad(name, 0.2)
			rcfg := goldenRunConfig()
			rcfg.Source = id
			run, err := Run(s.Program, s.Threads, rcfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, name, err)
			}

			s2 := workload.MustLoad(name, 0.2)
			chunkDir := filepath.Join(t.TempDir(), "chunked")
			sealArchive(t, s2.Program, s2.Threads, rcfg, chunkDir)
			got[prefix+name+"/chunked"] = hashDir(t, chunkDir)

			an, err := Analyze(s.Program, run, core.DefaultPipelineConfig())
			if err != nil {
				t.Fatalf("%s/%s: %v", id, name, err)
			}
			got[prefix+name+"/analysis"] = hashAnalysis(an)
		}
	}

	if os.Getenv("GOLDEN_UPDATE") != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFixtureFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFixtureFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d entries)", goldenFixtureFile, len(got))
		return
	}

	buf, err := os.ReadFile(goldenFixtureFile)
	if err != nil {
		t.Fatalf("missing fixture (generate with GOLDEN_UPDATE=1): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: hash diverged from the fixture\n  want %s\n  got  %s", k, want[k], got[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in fixture (regenerate if a subject was added)", k)
		}
	}
}
