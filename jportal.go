// Package jportal is the public API of the JPortal reproduction: precise
// and efficient control-flow tracing for JVM-like programs with (simulated)
// Intel Processor Trace.
//
// The typical flow mirrors the paper's two phases:
//
//	prog := bytecode.MustAssemble(src)        // or the workload generator
//	run, _ := jportal.Run(prog, nil, jportal.DefaultRunConfig())  // online
//	an, _ := jportal.Analyze(prog, run, core.DefaultPipelineConfig()) // offline
//	cov := profile.ComputeCoverage(prog, an.Threads)
//	hot := profile.HotMethods(prog, an.Threads, 10)
//
// Run executes the program on the simulated JVM with the PT collector
// attached (online collection: hardware trace + machine-code metadata,
// paper §3/§6); Analyze segregates the per-core traces by thread, decodes
// them, projects them onto the ICFG and recovers the data-loss holes
// (offline decoding, §4/§5).
package jportal

import (
	"context"
	"errors"
	"fmt"

	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/fault"
	"jportal/internal/meta"
	"jportal/internal/source"
	"jportal/internal/vm"

	// Link in the RISC-V E-Trace backend alongside the reference Intel PT
	// one (registered via core's pt import), so archives and
	// RunConfig.Source resolve either by ID.
	_ "jportal/internal/etrace"
)

// RunConfig bundles the online-phase configuration.
type RunConfig struct {
	VM vm.Config
	// Source selects the trace source by registry ID ("" = "intel-pt").
	// The source owns the packet format: its collector encodes the VM's
	// native events, its decoder turns archived packets back into the
	// neutral event stream.
	Source string
	// PT configures the collector (buffer sizes, drain cadence); the knobs
	// are source-independent, the name is historical.
	PT source.CollectorConfig
	// CollectOracle attaches the ground-truth oracle (simulation-only
	// affordance used to measure accuracy; it does not exist on real
	// hardware).
	CollectOracle bool
	// DisableTracing runs without PT (baseline timing runs).
	DisableTracing bool
	// SinkChunkItems is the per-core chunk size of streaming export
	// (RunWithSink); 0 means source.DefaultSinkFlushItems. Ignored by Run.
	SinkChunkItems int
}

// Validate rejects configurations the online phase cannot run with, before
// they surface as a zero-core deadlock or a collector that drops or never
// drains everything.
func (c RunConfig) Validate() error {
	if c.VM.Cores <= 0 {
		return fmt.Errorf("jportal: VM.Cores must be positive, got %d", c.VM.Cores)
	}
	if c.SinkChunkItems < 0 {
		return fmt.Errorf("jportal: SinkChunkItems %d is negative (0 means the default)", c.SinkChunkItems)
	}
	if !c.DisableTracing {
		if _, err := source.Lookup(c.Source); err != nil {
			return fmt.Errorf("jportal: %w", err)
		}
		if err := c.PT.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// DefaultRunConfig mirrors the paper's defaults (128MB-class buffers,
// scaled to simulation size).
func DefaultRunConfig() RunConfig {
	return RunConfig{VM: vm.DefaultConfig(), PT: source.DefaultCollectorConfig(), CollectOracle: true}
}

// RunResult is everything the online phase produces.
type RunResult struct {
	Stats    *vm.Stats
	Traces   []source.CoreTrace
	Sideband []vm.SwitchRecord
	Snapshot *meta.Snapshot
	Oracle   *Oracle
	// SourceID names the trace source that produced Traces ("" is read as
	// "intel-pt", so pre-refactor results and archives keep working).
	SourceID string
	// GenBytes is the total trace volume generated (exported + lost).
	GenBytes uint64
}

// Source resolves the run's trace source from its recorded ID.
func (r *RunResult) Source() (source.Source, error) {
	s, err := source.Lookup(r.SourceID)
	if err != nil {
		return nil, fmt.Errorf("jportal: %w", err)
	}
	return s, nil
}

// Run executes prog's threads under the simulated JVM with PT collection.
// A nil threads slice runs the program entry as a single thread.
func Run(prog *bytecode.Program, threads []vm.ThreadSpec, cfg RunConfig) (*RunResult, error) {
	om, err := newOnlineMachine(prog, threads, cfg)
	if err != nil {
		return nil, err
	}
	stats, err := om.m.Run(om.threads)
	if err != nil {
		return nil, err
	}
	var traces []source.CoreTrace
	if om.col != nil {
		traces = om.col.Finish(om.m.FinalTSC())
	}
	res := om.result(stats)
	res.Traces = traces
	return res, nil
}

// onlineMachine is the online phase's setup, shared by Run and
// RunWithSink: the VM with the trace source's collector (nil when tracing
// is disabled) and, on request, the ground-truth oracle attached.
type onlineMachine struct {
	m       *vm.Machine
	threads []vm.ThreadSpec
	src     source.Source
	col     *source.Collector
	oracle  *Oracle
}

// newOnlineMachine validates cfg, verifies prog and builds the machine. A
// nil threads slice runs the program entry as a single thread.
func newOnlineMachine(prog *bytecode.Program, threads []vm.ThreadSpec, cfg RunConfig) (*onlineMachine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := bytecode.Verify(prog); err != nil {
		return nil, err
	}
	if threads == nil {
		threads = []vm.ThreadSpec{{Method: prog.Entry}}
	}
	om := &onlineMachine{m: vm.New(prog, cfg.VM), threads: threads}
	if !cfg.DisableTracing {
		var err error
		if om.src, err = source.Lookup(cfg.Source); err != nil {
			return nil, fmt.Errorf("jportal: %w", err)
		}
		om.col = om.src.NewCollector(cfg.PT, cfg.VM.Cores)
		om.m.Tracer = om.col
	}
	if cfg.CollectOracle {
		om.oracle = NewOracle(len(threads))
		om.m.Listener = om.oracle
	}
	return om, nil
}

// result is the finished run without its traces, which Run takes from the
// collector and RunWithSink sent through its sink.
func (om *onlineMachine) result(stats *vm.Stats) *RunResult {
	res := &RunResult{
		Stats:    stats,
		Sideband: om.m.Sideband(),
		Snapshot: om.m.Snapshot,
		Oracle:   om.oracle,
	}
	if om.col != nil {
		res.SourceID = om.src.ID()
		res.GenBytes = om.col.GeneratedBytes()
	}
	return res
}

// Analysis is the offline phase's output: one reconstructed control flow
// per thread.
type Analysis struct {
	Threads  []*core.ThreadResult
	Pipeline *core.Pipeline
	// Report is the run's degradation summary (DESIGN.md §10): what the
	// hardened pipeline quarantined, what recovery got back, and the
	// bytecode coverage of the surviving profile. Always present; on a
	// clean run its quarantine counters are all zero.
	Report *fault.DegradationReport
}

// Analyze decodes and reconstructs a run. It is the batch form of the
// streaming Session — everything fed at once, drained at Close — so thread
// streams are analysed concurrently on cfg.Workers goroutines (0 =
// GOMAXPROCS) and Analysis.Threads keeps deterministic thread order and
// byte-identical content for every worker count and chunking. Traces must
// be in ascending core order (Run and LoadRun both guarantee it).
func Analyze(prog *bytecode.Program, run *RunResult, cfg core.PipelineConfig) (*Analysis, error) {
	if run == nil || run.Traces == nil {
		return nil, errors.New("jportal: run has no traces (tracing disabled?)")
	}
	if cfg.Source == nil {
		// Route decoding by the run's recorded source: an archive collected
		// with the E-Trace backend decodes with it, transparently.
		src, err := run.Source()
		if err != nil {
			return nil, err
		}
		cfg.Source = src
	}
	ncores := 1
	for i := range run.Traces {
		if i > 0 && run.Traces[i].Core <= run.Traces[i-1].Core {
			return nil, fmt.Errorf("jportal: traces out of core order (core %d after core %d)",
				run.Traces[i].Core, run.Traces[i-1].Core)
		}
		if n := run.Traces[i].Core + 1; n > ncores {
			ncores = n
		}
	}
	s, err := OpenSession(context.Background(), prog, run.Snapshot, ncores, cfg)
	if err != nil {
		return nil, err
	}
	s.AddSideband(run.Sideband)
	for i := range run.Traces {
		if err := s.Feed(run.Traces[i].Core, run.Traces[i].Items); err != nil {
			s.abandon()
			return nil, err
		}
	}
	return s.Close()
}
