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

// pieceLen is the reconstruction piece length: a segment is cut at the
// first valid located token at or past each multiple of it, and the
// pieces are matched independently (DESIGN.md §7).
const pieceLen = 32768

// A located token names exactly one NFA state (Definition 4.1), so the
// subset simulation's layer at a valid located token is that state alone,
// whatever came before: every run that reaches the token continues from
// the same singleton, and a run beginning there starts from it too. The
// projection therefore factors at such a token. A segment is cut at
// located tokens into pieces; each piece runs the simulation and the
// witness walk over its own tokens, starting at its left cut (the right
// piece re-enters the cut token as its first layer, but the cut token's
// slot belongs to the left piece), and the pieces are joined right to
// left. What crosses a cut is the one matched run that spans it, which
// both pieces count, and the witness rule of MatchFromScratch: a walk that
// crosses a re-anchor takes every earlier layer's smallest state, so a
// re-anchor right of a cut reaches back into the pieces left of it.

// piece is one cut piece of a segment's reconstruction: the tokens
// [from, hi) it simulates, the slots [lo, hi) of SegmentFlow.Nodes it
// owns (from is lo-1, the left cut, except in the first piece), and what
// the join needs from it.
type piece struct {
	from, lo, hi int

	runs, skipped, reanchors, fallbacks int
	// firstCrossed reports that the witness walk of the run beginning at
	// the left cut crossed a re-anchor; firstSpans that the run reaches
	// the piece's end.
	firstCrossed, firstSpans bool
	// over lists the layers of the run ending at the right cut whose
	// walked state is not their smallest, with that smallest state: the
	// join writes them when the whole run's walk crossed a re-anchor
	// right of the cut.
	over []override
	// crash says why the piece panicked, for the session's ledger.
	crash string
}

// override is one slot the join sets to its layer's smallest state.
type override struct {
	at   int32
	node cfg.NodeID
}

// newFlow returns seg's flow with no token projected yet; the pieces fill
// in Nodes and the join the counters.
func newFlow(seg *Segment, g *cfg.ICFG) *SegmentFlow {
	return &SegmentFlow{Seg: seg, Nodes: make([]cfg.NodeID, len(seg.Tokens)), g: g}
}

// cutPieces cuts toks into pieces of about n tokens, appending them to
// ps[:0]: each cut is the first valid located token at or past the next
// multiple of n, short of the last token. The PDA engine gets one piece:
// its call stack crosses located tokens.
func (m *Matcher) cutPieces(toks []Token, n int, ps []piece) []piece {
	ps = append(ps[:0], piece{})
	for next := n; !m.UseContext && next < len(toks)-1; {
		c := next
		for c < len(toks)-1 {
			if _, ok := m.locatedNode(&toks[c]); ok {
				break
			}
			c++
		}
		if c == len(toks)-1 {
			break
		}
		ps[len(ps)-1].hi = c + 1
		ps = append(ps, piece{from: c, lo: c + 1})
		next = (c/n + 1) * n
	}
	ps[len(ps)-1].hi = len(toks)
	return ps
}

// reconstructPiece projects piece p of f's segment into its own slots of
// f.Nodes: maximal runs of tokens, each matched from the candidate states
// of the first unmatched token, restarting after hard mismatches the way
// the paper's reconstruction resumes from a fresh starting point. The
// overrides of the run ending at a right cut are appended to over, and
// p.over is set to them.
func (m *Matcher) reconstructPiece(sc *MatchScratch, f *SegmentFlow, p *piece, over []override) []override {
	toks := f.Seg.Tokens[:p.hi]
	for i := p.lo; i < p.hi; i++ {
		f.Nodes[i] = cfg.NoNode
	}
	o0 := len(over)
	for i := p.from; i < p.hi; {
		starts := m.candidateStarts(sc, &toks[i])
		var r MatchResult
		var crossed bool
		if m.UseContext {
			r = m.MatchFromContext(starts, toks[i:])
		} else {
			r, crossed = m.match(sc, starts, toks[i:])
		}
		if r.Matched == 0 {
			p.skipped++
			i++
			continue
		}
		if i < p.lo { // the run beginning at the left cut
			p.firstCrossed, p.firstSpans = crossed, i+r.Matched == p.hi
			copy(f.Nodes[p.lo:], r.Path[1:])
		} else {
			copy(f.Nodes[i:], r.Path)
		}
		p.runs++
		p.reanchors += r.Reanchors
		p.fallbacks += r.Fallbacks
		if i+r.Matched == p.hi && p.hi < len(f.Nodes) {
			over = sc.overrides(over, i, r.Path)
		}
		i += r.Matched
	}
	p.over = over[o0:len(over):len(over)]
	return over
}

// overrides appends the layers of the match just run, which began at
// token at and walked path, whose walked state is not the layer's
// smallest.
func (sc *MatchScratch) overrides(over []override, at int, path []cfg.NodeID) []override {
	for li, n := range path {
		l := sc.ents[sc.starts[li]:sc.starts[li+1]]
		if len(l) > 1 {
			if s := l[smallest(l)].node; s != n {
				over = append(over, override{at: int32(at + li), node: s})
			}
		}
	}
	return over
}

// join completes f from its pieces, right to left: the counters are
// summed (the run spanning each cut counted once), and a piece whose
// right neighbour's walk crossed a re-anchor in the run spanning their
// cut takes its overrides. That crossing reaches further left while the
// spanning run spans whole pieces.
func (f *SegmentFlow) join(ps []piece) {
	crossed := false
	for k := len(ps) - 1; k >= 0; k-- {
		p := &ps[k]
		if crossed {
			for _, o := range p.over {
				f.Nodes[o.at] = o.node
			}
		}
		f.Runs += p.runs
		f.Skipped += p.skipped
		f.Reanchors += p.reanchors
		f.Fallbacks += p.fallbacks
		crossed = p.firstCrossed || p.firstSpans && crossed
	}
	f.Runs -= len(ps) - 1
}

// ReconstructSegmentScratch projects one segment onto the ICFG (§4),
// running its pieces in order on sc and joining them. sc is the caller's
// scratch: segments and pieces are independent and the matcher is
// read-only, so one worker per scratch can reconstruct different segments,
// or different pieces of one (ThreadAnalyzer's segment tasks), at once.
func (m *Matcher) ReconstructSegmentScratch(sc *MatchScratch, seg *Segment) *SegmentFlow {
	return m.reconstructPieces(sc, seg, pieceLen)
}

// reconstructPieces is ReconstructSegmentScratch at piece length n.
func (m *Matcher) reconstructPieces(sc *MatchScratch, seg *Segment, n int) *SegmentFlow {
	f := newFlow(seg, m.G)
	sc.pieces = m.cutPieces(seg.Tokens, n, sc.pieces)
	over := sc.over[:0]
	for k := range sc.pieces {
		over = m.reconstructPiece(sc, f, &sc.pieces[k], over)
	}
	sc.over = over
	f.join(sc.pieces)
	return f
}
