package core

import (
	"fmt"
	"math"
	"time"

	"jportal/internal/bytecode"
	"jportal/internal/cfg"
	"jportal/internal/conc"
	"jportal/internal/source"

	// Link in the reference Intel PT backend so the default trace source
	// resolves for every existing caller; alternate backends are selected
	// explicitly via PipelineConfig.Source.
	_ "jportal/internal/pt"
)

// PipelineConfig configures the offline analysis.
type PipelineConfig struct {
	// Source is the trace source whose decoder interprets the packet
	// streams (nil = the registered default, Intel PT). The analysis
	// layers above the decoder are source-independent.
	Source source.Source
	// Recovery is the §5 configuration.
	Recovery RecoveryConfig
	// UseCallContext switches reconstruction to the PDA engine (an
	// extension; the paper uses the NFA).
	UseCallContext bool
	// Workers sizes the session's worker pool, on which each thread's
	// deltas and Finish run in order and per-segment reconstruction and
	// recovery prep, per-hole recovery, the step merge and the coverage
	// fold run beside them, and the stitcher's final per-core carve.
	// 0 means GOMAXPROCS. The reconstructed output is deterministic —
	// identical for every worker count.
	Workers int
}

// WorkerCount resolves the Workers knob (0 = GOMAXPROCS).
func (c PipelineConfig) WorkerCount() int { return conc.Workers(c.Workers) }

// Validate rejects nonsensical configurations up front, before they would
// surface as a hang, a panic, or a silently serial pipeline deep inside the
// offline phase.
func (c PipelineConfig) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers %d is negative (0 means GOMAXPROCS)", c.Workers)
	}
	r := c.Recovery
	if r.AnchorLen < 0 || r.ConfirmLen < 0 || r.TopN < 0 ||
		r.MaxFillTokens < 0 || r.FallbackWalkMax < 0 {
		return fmt.Errorf("core: recovery bounds must be non-negative (anchor %d, confirm %d, topN %d, maxFill %d, walk %d)",
			r.AnchorLen, r.ConfirmLen, r.TopN, r.MaxFillTokens, r.FallbackWalkMax)
	}
	if math.IsNaN(r.TimeBudgetSlack) || r.TimeBudgetSlack < 0 {
		return fmt.Errorf("core: recovery TimeBudgetSlack %v must be a non-negative number", r.TimeBudgetSlack)
	}
	return nil
}

// DefaultPipelineConfig returns the production configuration.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{Recovery: DefaultRecoveryConfig()}
}

// Pipeline is the reusable offline analyser for one program: it owns the
// ICFG and matcher and processes per-thread packet streams.
type Pipeline struct {
	Prog    *bytecode.Program
	Matcher *Matcher
	Cfg     PipelineConfig

	// src is the resolved trace source (Cfg.Source or the default).
	src source.Source
}

// NewPipeline builds the ICFG, with dynamic call edges resolved, and the
// matcher for prog.
func NewPipeline(prog *bytecode.Program, pcfg PipelineConfig) *Pipeline {
	m := NewMatcher(cfg.BuildICFG(prog, cfg.DefaultOptions()))
	m.UseContext = pcfg.UseCallContext
	src := pcfg.Source
	if src == nil {
		src = source.Default()
	}
	return &Pipeline{Prog: prog, Matcher: m, Cfg: pcfg, src: src}
}

// Source returns the trace source this pipeline decodes with.
func (p *Pipeline) Source() source.Source { return p.src }

// ThreadResult is the reconstructed control flow of one thread.
type ThreadResult struct {
	Thread int
	// Steps is the end-to-end control-flow profile: decoded steps plus
	// recovered steps, in execution order.
	Steps []Step

	Decode DecodeThreadStats
	// Flows are the per-segment projections (kept for diagnostics and
	// recovery ablations).
	Flows []*SegmentFlow
	// Fills describe each hole's recovery outcome; Fills[i] fills the
	// hole after Flows[i].
	Fills []Fill

	// Timing of the offline phases.
	DecodeTime  time.Duration
	RecoverTime time.Duration

	// RecoveredSteps counts steps contributed by recovery.
	RecoveredSteps int
	// DecodedSteps counts steps from captured data.
	DecodedSteps int
}
