package core

import (
	"jportal/internal/bytecode"
	"jportal/internal/cfg"
)

// Step is one reconstructed control-flow step: the bytecode instruction at
// (Method, PC) executed.
type Step struct {
	Method bytecode.MethodID
	PC     int32
	TSC    uint64
	// Recovered marks steps synthesised by the data-recovery phase (§5)
	// rather than decoded from captured trace data.
	Recovered bool
}

// SegmentFlow is a reconstructed segment: the projection of its tokens onto
// the ICFG.
type SegmentFlow struct {
	Seg *Segment
	// Nodes is parallel to Seg.Tokens; cfg.NoNode marks unprojected
	// tokens.
	Nodes []cfg.NodeID
	// Runs counts maximal matched runs (1 when the whole segment
	// projected in one piece).
	Runs int
	// Skipped counts tokens no projection was found for.
	Skipped int
	// Reanchors and Fallbacks aggregate the matcher diagnostics.
	Reanchors int
	Fallbacks int
	// Quarantined marks a flow whose reconstruction was abandoned (the
	// matcher crashed on untrusted tokens, typically stale or hostile JIT
	// metadata): it contributes no steps, and §5 recovery neither indexes
	// it as a candidate nor anchors holes on it.
	Quarantined bool

	g *cfg.ICFG
}

// quarantinedFlow builds the empty projection recorded for a segment whose
// reconstruction crashed: every token skipped, nothing projected.
func quarantinedFlow(seg *Segment, g *cfg.ICFG) *SegmentFlow {
	f := &SegmentFlow{Seg: seg, Nodes: make([]cfg.NodeID, len(seg.Tokens)),
		Skipped: len(seg.Tokens), Quarantined: true, g: g}
	for i := range f.Nodes {
		f.Nodes[i] = cfg.NoNode
	}
	return f
}

// Matched counts the projected tokens (the length of Steps without
// materialising it).
func (f *SegmentFlow) Matched() int { return len(f.Nodes) - f.Skipped }

// Steps materialises the segment's steps (matched tokens only).
func (f *SegmentFlow) Steps() []Step {
	return f.AppendSteps(make([]Step, 0, f.Matched()))
}

// AppendSteps appends the segment's steps (matched tokens only) to dst —
// the allocation-free form of Steps for callers assembling a profile.
func (f *SegmentFlow) AppendSteps(dst []Step) []Step {
	clock := f.Seg.clockWalk()
	for i, n := range f.Nodes {
		if n == cfg.NoNode {
			continue
		}
		mid, pc := f.g.Location(n)
		dst = append(dst, Step{Method: mid, PC: pc, TSC: clock.tscAt(i)})
	}
	return dst
}

// ReconstructSegmentScratch projects one segment onto the ICFG (§4): it
// matches maximal runs of tokens starting from the candidate states of the
// first unmatched token, restarting after hard mismatches the way the
// paper's reconstruction resumes from a fresh starting point. sc is the
// caller's scratch: segments are independent and the matcher is read-only,
// so one worker per scratch can reconstruct different segments of a thread
// concurrently.
func (m *Matcher) ReconstructSegmentScratch(sc *MatchScratch, seg *Segment) *SegmentFlow {
	f := &SegmentFlow{Seg: seg, Nodes: make([]cfg.NodeID, len(seg.Tokens)), g: m.G}
	for i := range f.Nodes {
		f.Nodes[i] = cfg.NoNode
	}
	toks := seg.Tokens
	i := 0
	for i < len(toks) {
		starts := m.candidateStarts(sc, &toks[i])
		var r MatchResult
		if m.UseContext {
			r = m.MatchFromContext(starts, toks[i:])
		} else {
			r = m.MatchFromScratch(sc, starts, toks[i:])
		}
		if r.Matched == 0 {
			f.Skipped++
			i++
			continue
		}
		copy(f.Nodes[i:], r.Path)
		f.Runs++
		f.Reanchors += r.Reanchors
		f.Fallbacks += r.Fallbacks
		i += r.Matched
	}
	return f
}
