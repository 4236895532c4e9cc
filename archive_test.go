package jportal

import (
	"path/filepath"
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/metrics"
	"jportal/internal/vm"
	"jportal/internal/workload"
)

// sealArchive is CollectArchive that fails the test on error.
func sealArchive(t testing.TB, prog *bytecode.Program, threads []vm.ThreadSpec, rcfg RunConfig, dir string) *RunResult {
	t.Helper()
	run, err := CollectArchive(dir, prog, threads, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestArchiveRoundTrip(t *testing.T) {
	s := workload.MustLoad("fop", 0.3)
	dir := filepath.Join(t.TempDir(), "archive")
	sealArchive(t, s.Program, s.Threads, DefaultRunConfig(), dir)
	s2 := workload.MustLoad("fop", 0.3)
	run, err := Run(s2.Program, s2.Threads, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}

	prog2, run2, err := LoadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog2.Methods) != len(s.Program.Methods) {
		t.Fatalf("program methods: %d vs %d", len(prog2.Methods), len(s.Program.Methods))
	}
	if len(run2.Traces) != len(run.Traces) {
		t.Fatalf("traces: %d vs %d", len(run2.Traces), len(run.Traces))
	}
	if len(run2.Sideband) != len(run.Sideband) {
		t.Fatalf("sideband: %d vs %d", len(run2.Sideband), len(run.Sideband))
	}
	if len(run2.Snapshot.Compiled) != len(run.Snapshot.Compiled) {
		t.Fatalf("snapshot blobs: %d vs %d", len(run2.Snapshot.Compiled), len(run.Snapshot.Compiled))
	}

	// Analyzing the loaded archive must produce the same reconstruction
	// as analyzing the live run.
	live, err := Analyze(s2.Program, run, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Analyze(prog2, run2, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Threads) != len(loaded.Threads) {
		t.Fatal("thread counts differ")
	}
	for i := range live.Threads {
		a, b := live.Threads[i].Steps, loaded.Threads[i].Steps
		if len(a) != len(b) {
			t.Fatalf("thread %d: %d vs %d steps", i, len(a), len(b))
		}
		var ka, kb []metrics.Key
		for j := range a {
			ka = append(ka, metrics.StepKey(int32(a[j].Method), a[j].PC))
			kb = append(kb, metrics.StepKey(int32(b[j].Method), b[j].PC))
		}
		if metrics.Similarity(ka, kb, 4096) != 1 {
			t.Fatalf("thread %d: reconstructions differ after archive round trip", i)
		}
	}
}

func TestLoadRunMissingDir(t *testing.T) {
	if _, _, err := LoadRun(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("loaded a missing archive")
	}
}
