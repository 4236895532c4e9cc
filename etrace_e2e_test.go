package jportal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/etrace"
	"jportal/internal/workload"
)

// etraceRunConfig mirrors goldenRunConfig but selects the RISC-V E-Trace
// source and keeps the oracle for similarity checks: small buffers so the
// loss/recovery path is exercised on the second backend too.
func etraceRunConfig() RunConfig {
	rcfg := DefaultRunConfig()
	rcfg.Source = etrace.ID
	rcfg.PT.BufBytes = 16 << 10
	rcfg.SinkChunkItems = 64
	return rcfg
}

// TestETraceEndToEndAllSubjects runs every subject through the full
// pipeline on the E-Trace backend: collect into an archive, load it whole,
// and replay it as a stream — the same suite the PT golden test covers,
// proving the neutral layers are ISA-agnostic.
func TestETraceEndToEndAllSubjects(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			s := workload.MustLoad(name, 0.2)
			dir := filepath.Join(t.TempDir(), "archive")
			run := sealArchive(t, s.Program, s.Threads, etraceRunConfig(), dir)
			if run.SourceID != etrace.ID {
				t.Fatalf("SourceID = %q, want %q", run.SourceID, etrace.ID)
			}

			// The source ID must be declared in archive.meta and survive
			// the load.
			metaBytes, err := os.ReadFile(filepath.Join(dir, MetaFileName))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(metaBytes), "source: "+etrace.ID+"\n") {
				t.Fatalf("archive.meta missing source line:\n%s", metaBytes)
			}
			prog2, run2, err := LoadRun(dir)
			if err != nil {
				t.Fatal(err)
			}
			if run2.SourceID != etrace.ID {
				t.Fatalf("loaded SourceID = %q, want %q", run2.SourceID, etrace.ID)
			}

			// Analysis of the loaded run must route to the E-Trace decoder
			// (RunResult.Source) and reconstruct the control flow.
			an, err := Analyze(prog2, run2, core.DefaultPipelineConfig())
			if err != nil {
				t.Fatal(err)
			}
			if len(an.Threads) != len(s.Threads) {
				t.Fatalf("threads: got %d, want %d", len(an.Threads), len(s.Threads))
			}
			for tid := range an.Threads {
				sim := similarity(an, run.Oracle, tid)
				if sim < 0.5 {
					t.Errorf("thread %d similarity %.3f too low", tid, sim)
				}
			}

			// The streamed replay of the same archive agrees with the load.
			_, streamed, err := AnalyzeStreamArchive(dir, core.DefaultPipelineConfig(), false, 0)
			if err != nil {
				t.Fatal(err)
			}
			equalAnalyses(t, "stream vs load", an, streamed)
		})
	}
}

// TestMixedSourceArchives collects one PT run and one E-Trace run of the
// same program side by side and checks LoadRun routes each archive to its
// own decoder: the PT archive.meta stays byte-compatible (no source line),
// the E-Trace one declares its source, and both analyses succeed.
func TestMixedSourceArchives(t *testing.T) {
	prog := bytecode.MustAssemble(fibSrc)
	root := t.TempDir()
	ptDir := filepath.Join(root, "pt")
	etDir := filepath.Join(root, "etrace")

	ptCfg := DefaultRunConfig()
	ptCfg.VM.Cores = 1
	ptRun := sealArchive(t, prog, nil, ptCfg, ptDir)
	etCfg := ptCfg
	etCfg.Source = etrace.ID
	etRun := sealArchive(t, prog, nil, etCfg, etDir)

	ptMeta, err := os.ReadFile(filepath.Join(ptDir, MetaFileName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(ptMeta), "source:") {
		t.Fatalf("PT archive.meta gained a source line (breaks byte identity):\n%s", ptMeta)
	}
	if !strings.Contains(string(ptMeta), "version: 2\n") {
		t.Fatalf("PT archive.meta must keep the legacy version stamp:\n%s", ptMeta)
	}
	etMeta, err := os.ReadFile(filepath.Join(etDir, MetaFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(etMeta), "source: "+etrace.ID+"\n") {
		t.Fatalf("E-Trace archive.meta missing source line:\n%s", etMeta)
	}
	// A non-default source bumps the version stamp so pre-source binaries
	// refuse the archive instead of misdecoding its packets as PT.
	if !strings.Contains(string(etMeta), "version: 3\n") {
		t.Fatalf("E-Trace archive.meta must carry version 3 for old-binary gating:\n%s", etMeta)
	}

	for _, tc := range []struct {
		dir    string
		srcID  string
		oracle *Oracle
	}{
		{ptDir, "intel-pt", ptRun.Oracle},
		{etDir, etrace.ID, etRun.Oracle},
	} {
		p, run, err := LoadRun(tc.dir)
		if err != nil {
			t.Fatalf("%s: %v", tc.dir, err)
		}
		if run.SourceID != tc.srcID {
			t.Errorf("%s: SourceID = %q, want %q", tc.dir, run.SourceID, tc.srcID)
		}
		an, err := Analyze(p, run, core.DefaultPipelineConfig())
		if err != nil {
			t.Fatalf("%s: %v", tc.dir, err)
		}
		if sim := similarity(an, tc.oracle, 0); sim < 0.75 {
			t.Errorf("%s: similarity %.3f too low", tc.dir, sim)
		}
	}
}
