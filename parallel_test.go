package jportal_test

import (
	"reflect"
	"testing"

	"jportal"
	"jportal/internal/core"
	"jportal/internal/workload"
)

// TestAnalyzeDeterministicAcrossWorkers is the end-to-end determinism
// check for the parallel offline pipeline: analysing the same run with 1
// and with 8 workers must produce byte-identical per-thread results —
// steps, segment flows, hole fills and decode statistics. The buffer is
// shrunk so the run actually loses data and the concurrent hole-recovery
// fan-out is exercised, and h2 runs 4 threads so the thread-level fan-out
// is too.
func TestAnalyzeDeterministicAcrossWorkers(t *testing.T) {
	s := workload.MustLoad("h2", 0.5)
	rcfg := jportal.DefaultRunConfig()
	// Paper-label 64MB at the simulation's buffer scale (see
	// experiments.BufScaleShift): small enough to overflow, producing
	// holes that exercise the concurrent recovery fan-out.
	rcfg.PT.BufBytes = 16 << 10
	run, err := jportal.Run(s.Program, s.Threads, rcfg)
	if err != nil {
		t.Fatal(err)
	}

	analyze := func(workers int) *jportal.Analysis {
		cfg := core.DefaultPipelineConfig()
		cfg.Workers = workers
		an, err := jportal.Analyze(s.Program, run, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return an
	}
	serial := analyze(1)
	parallel := analyze(8)

	if len(serial.Threads) != len(parallel.Threads) {
		t.Fatalf("thread count: %d vs %d", len(serial.Threads), len(parallel.Threads))
	}
	var recovered int
	for i := range serial.Threads {
		a, b := serial.Threads[i], parallel.Threads[i]
		if a.Thread != b.Thread {
			t.Fatalf("thread %d: order diverged (%d vs %d)", i, a.Thread, b.Thread)
		}
		if !reflect.DeepEqual(a.Steps, b.Steps) {
			t.Errorf("thread %d: steps diverge (%d vs %d)", a.Thread, len(a.Steps), len(b.Steps))
		}
		if !reflect.DeepEqual(a.Fills, b.Fills) {
			t.Errorf("thread %d: fills diverge", a.Thread)
		}
		if len(a.Flows) != len(b.Flows) {
			t.Errorf("thread %d: flow count %d vs %d", a.Thread, len(a.Flows), len(b.Flows))
		} else {
			for j := range a.Flows {
				if !reflect.DeepEqual(a.Flows[j].Nodes, b.Flows[j].Nodes) ||
					a.Flows[j].Skipped != b.Flows[j].Skipped {
					t.Errorf("thread %d flow %d: diverges", a.Thread, j)
					break
				}
			}
		}
		if a.Decode != b.Decode {
			t.Errorf("thread %d: decode stats diverge (%+v vs %+v)", a.Thread, a.Decode, b.Decode)
		}
		if a.RecoveredSteps != b.RecoveredSteps || a.DecodedSteps != b.DecodedSteps {
			t.Errorf("thread %d: step counts diverge", a.Thread)
		}
		recovered += a.RecoveredSteps
	}
	if recovered == 0 {
		t.Error("no recovered steps: fixture did not exercise hole recovery")
	}
}
