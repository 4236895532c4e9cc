package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"jportal/internal/bytecode"
	"jportal/internal/cfg"
	"jportal/internal/conc"
	"jportal/internal/fault"
)

// wholeSegment is the reconstruction loop before segments were cut into
// pieces: maximal runs matched one after another over the whole segment.
// It is the oracle the piecewise reconstruction must reproduce.
func (m *Matcher) wholeSegment(sc *MatchScratch, seg *Segment) *SegmentFlow {
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

// flowOutcome is what the piecewise reconstruction must reproduce of the
// oracle's: the projection, the diagnostics, or the panic.
type flowOutcome struct {
	Nodes                               []cfg.NodeID
	Runs, Skipped, Reanchors, Fallbacks int
	Panic                               string
}

func reconstructOutcome(f func() *SegmentFlow) (out flowOutcome) {
	defer func() {
		if p := recover(); p != nil {
			out = flowOutcome{Panic: fmt.Sprint(p)}
		}
	}()
	fl := f()
	return flowOutcome{Nodes: fl.Nodes, Runs: fl.Runs, Skipped: fl.Skipped,
		Reanchors: fl.Reanchors, Fallbacks: fl.Fallbacks}
}

// testPieceLens are the piece lengths the property tests cut at: every
// located token (1), short pieces, and pieces longer than most runs.
var testPieceLens = []int{1, 2, 3, 4, 5, 6, 7, 8, 64}

// checkPieces compares the piecewise reconstruction of seg at every test
// piece length against the oracle, and returns how many pieces the
// shortest length cut it into.
func checkPieces(t *testing.T, m *Matcher, sc *MatchScratch, seg *Segment, what string) int {
	t.Helper()
	want := reconstructOutcome(func() *SegmentFlow { return m.wholeSegment(sc, seg) })
	pieces := 0
	for _, n := range testPieceLens {
		got := reconstructOutcome(func() *SegmentFlow { return m.reconstructPieces(sc, seg, n) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, piece length %d: got runs %d skipped %d reanchors %d fallbacks %d panic %q, want runs %d skipped %d reanchors %d fallbacks %d panic %q (nodes equal: %v)",
				what, n, got.Runs, got.Skipped, got.Reanchors, got.Fallbacks, got.Panic,
				want.Runs, want.Skipped, want.Reanchors, want.Fallbacks, want.Panic,
				reflect.DeepEqual(got.Nodes, want.Nodes))
		}
		if n == testPieceLens[0] {
			pieces = len(m.cutPieces(seg.Tokens, n, nil))
		}
	}
	return pieces
}

// mixedTokens concatenates walkTokens runs of random length and located
// share: interpreter runs, located runs with stale locations, and a gap
// (a re-anchor) between every two runs. Half the mixes demote their stale
// tokens to interpreter tokens, so that most of those do not panic.
func mixedTokens(rng *rand.Rand, m *Matcher) []Token {
	var toks []Token
	for k := 1 + rng.Intn(6); k > 0; k-- {
		toks = append(toks, walkTokens(rng, m, 1+rng.Intn(80), []int{0, 50, 90, 100}[rng.Intn(4)])...)
	}
	if rng.Intn(2) == 0 {
		for i := range toks {
			if _, ok := m.locatedNode(&toks[i]); !ok {
				toks[i].Method = bytecode.NoMethod
			}
		}
	}
	return toks
}

// TestPiecesMatchWholeSegment: on random token mixes over a loop and over
// a program that takes every fallback, reconstruction cut into pieces of
// 1 to 8 and 64 tokens gives the whole-segment loop's nodes, runs,
// skipped tokens, re-anchors and fallbacks (or the same panic) for
// MaxStates 0, 1, 2 and the default. The mixes must exercise what the
// join reconciles: runs spanning cuts, and walks crossing a re-anchor
// right of a cut where an earlier layer's walked state is not its
// smallest.
func TestPiecesMatchWholeSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, prog := range []struct {
		name string
		src  string
		opts cfg.Options
	}{
		{"loop", locLoopSrc, cfg.DefaultOptions()},
		{"fallback", fallbackSrc, cfg.Options{ResolveDynCalls: false}},
		{"fig2", fig2Src, cfg.DefaultOptions()},
	} {
		m := NewMatcher(cfg.BuildICFG(bytecode.MustAssemble(prog.src), prog.opts))
		sc := m.NewScratch()
		multi, panics, overridden := 0, 0, 0
		for iter := 0; iter < 300; iter++ {
			seg := &Segment{Tokens: mixedTokens(rng, m)}
			for _, maxStates := range []int{0, 1, 2, 4096} {
				m.MaxStates = maxStates
				what := fmt.Sprintf("%s iter %d MaxStates %d", prog.name, iter, maxStates)
				if checkPieces(t, m, sc, seg, what) > 1 {
					multi++
				}
				if reconstructOutcome(func() *SegmentFlow { return m.wholeSegment(sc, seg) }).Panic != "" {
					panics++
				} else if joinOverrides(m, sc, seg, 1) {
					overridden++
				}
			}
		}
		m.MaxStates = 4096
		t.Logf("%s: %d multi-piece segments, %d panics, %d joins that overrode", prog.name, multi, panics, overridden)
		if multi == 0 || panics == 0 || overridden == 0 {
			t.Errorf("%s: %d multi-piece segments, %d panics, %d joins that overrode", prog.name, multi, panics, overridden)
		}
	}
}

// joinOverrides reports whether the join of seg's pieces at length n
// wrote an override: a crossing right of a cut reached a layer whose
// walked state was not its smallest.
func joinOverrides(m *Matcher, sc *MatchScratch, seg *Segment, n int) bool {
	m.reconstructPieces(sc, seg, n)
	crossed := false
	for k := len(sc.pieces) - 1; k >= 0; k-- {
		p := &sc.pieces[k]
		if crossed && len(p.over) > 0 {
			return true
		}
		crossed = p.firstCrossed || p.firstSpans && crossed
	}
	return false
}

// TestCutPieces pins the cut rule: the first valid located token at or
// past each multiple of the piece length, never the last token, and no
// cut at all for the PDA engine.
func TestCutPieces(t *testing.T) {
	_, m := fig2Matcher(t)
	loc := Token{Method: 0, PC: 0, Op: m.G.Instr(0).Op}
	stale := Token{Method: 0, PC: 999, Op: bytecode.ILOAD}
	interp := Token{Method: bytecode.NoMethod, Op: bytecode.ILOAD}
	toks := []Token{loc, interp, loc, interp, stale, interp, loc, loc, interp, loc}
	bounds := func(ps []piece) [][3]int {
		var out [][3]int
		for _, p := range ps {
			out = append(out, [3]int{p.from, p.lo, p.hi})
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		want [][3]int
	}{
		{1, [][3]int{{0, 0, 3}, {2, 3, 7}, {6, 7, 8}, {7, 8, 10}}},
		{3, [][3]int{{0, 0, 7}, {6, 7, 10}}},
		{4, [][3]int{{0, 0, 7}, {6, 7, 10}}},
		{8, [][3]int{{0, 0, 10}}},
		{64, [][3]int{{0, 0, 10}}},
	} {
		if got := bounds(m.cutPieces(toks, tc.n, nil)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("piece length %d: pieces %v, want %v", tc.n, got, tc.want)
		}
	}
	m.UseContext = true
	if got := bounds(m.cutPieces(toks, 1, nil)); !reflect.DeepEqual(got, [][3]int{{0, 0, 10}}) {
		t.Errorf("PDA engine: pieces %v, want one", got)
	}
}

// locatedSegment returns a segment of n valid located tokens, naming the
// matcher's nodes in turn.
func locatedSegment(m *Matcher, n int) *Segment {
	toks := make([]Token, n)
	for i := range toks {
		nd := cfg.NodeID(i % m.G.NumNodes())
		mid, pc := m.G.Location(nd)
		toks[i] = Token{Method: mid, PC: pc, Op: m.op[nd]}
	}
	return &Segment{Tokens: toks}
}

// TestPieceCrashQuarantinesItsSegment: a segment of three pieces whose
// second and third pieces each hold a located token naming no method
// crashes in both. On a pool of 1 and of 3 workers, the session's
// reconstruction quarantines that segment alone, with the ledger entry
// the whole-segment path writes (stale metadata, the segment's tokens, and
// the panic of the lowest crashing piece, which is the whole segment's);
// the segments around it reconstruct as they do inline; and the pool
// leaves no goroutine behind.
func TestPieceCrashQuarantinesItsSegment(t *testing.T) {
	pcfg := DefaultPipelineConfig()
	pcfg.Recovery.Disable = true
	p := NewPipeline(bytecode.MustAssemble(locLoopSrc), pcfg)
	m := p.Matcher
	bad := locatedSegment(m, 3*pieceLen)
	bad.Tokens[pieceLen+100].Method = 99
	bad.Tokens[2*pieceLen+100].Method = 98
	if n := len(m.cutPieces(bad.Tokens, pieceLen, nil)); n != 3 {
		t.Fatalf("crashing segment cut into %d pieces, want 3", n)
	}
	panicked := reconstructOutcome(func() *SegmentFlow { return m.wholeSegment(m.NewScratch(), bad) }).Panic
	if panicked == "" {
		t.Fatal("the whole-segment loop did not panic on the stale tokens")
	}
	want := []fault.Entry{{Reason: fault.ReasonStaleMetadata, Thread: 0, Core: -1, Count: 1,
		Items: len(bad.Tokens), Detail: "reconstruct: " + panicked}}
	good := []*Segment{locatedSegment(m, 2*pieceLen+7), locatedSegment(m, 100)}
	sc := m.NewScratch()
	var inline []*SegmentFlow
	for _, seg := range good {
		inline = append(inline, m.ReconstructSegmentScratch(sc, seg))
	}

	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		before := runtime.NumGoroutine()
		pool := conc.NewPool(workers, 4, m.NewScratch)
		a := p.NewThreadAnalyzer(0, nil)
		a.SetPool(pool)
		ledger := fault.NewLedger(nil)
		a.SetLedger(ledger)
		a.takeSegments(ctx, []*Segment{good[0], bad, good[1]}, false)
		var res *ThreadResult
		done := make(chan struct{})
		pool.NewStrand().Post(func(sc *MatchScratch) { res = a.Finish(ctx, sc); close(done) })
		<-done
		pool.Close()

		if got := ledger.Entries(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: ledger %+v, want %+v", workers, got, want)
		}
		if len(res.Flows) != 3 || !res.Flows[1].Quarantined {
			t.Fatalf("workers %d: %d flows, the crashing one quarantined: %v", workers, len(res.Flows), len(res.Flows) > 1 && res.Flows[1].Quarantined)
		}
		for i, k := range []int{0, 2} {
			f, w := res.Flows[k], inline[i]
			if f.Quarantined || !reflect.DeepEqual(f.Nodes, w.Nodes) || f.Runs != w.Runs ||
				f.Skipped != w.Skipped || f.Reanchors != w.Reanchors || f.Fallbacks != w.Fallbacks {
				t.Errorf("workers %d: flow %d (quarantined %v, runs %d) differs from its inline reconstruction (runs %d)",
					workers, k, f.Quarantined, f.Runs, w.Runs)
			}
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Errorf("workers %d: %d goroutines left behind", workers, n-before)
		}
	}
}
