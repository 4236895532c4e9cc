package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/cfg"
)

// generalMatch is MatchFromScratch with every layer built by the general
// subset step — successors, dedup marks and tokenMatchesNode for each
// state — including layers after a located token, which MatchFromScratch
// builds with its one-state located step.
func (m *Matcher) generalMatch(sc *MatchScratch, starts []cfg.NodeID, toks []Token) MatchResult {
	if len(toks) == 0 {
		return MatchResult{Complete: true}
	}
	var res MatchResult
	ents, bounds := sc.ents[:0], append(sc.starts[:0], 0)
	for _, s := range starts {
		if m.tokenMatchesNode(&toks[0], s) {
			ents = append(ents, layerEntry{node: s, parent: -1})
		}
		if len(ents) >= m.MaxStates {
			break
		}
	}
	if len(ents) == 0 {
		sc.ents, sc.starts = ents, bounds
		return res
	}
	bounds = append(bounds, int32(len(ents)))
	for i := 0; i+1 < len(toks); i++ {
		lo, hi := bounds[i], bounds[i+1]
		sc.reset()
		tok := &toks[i]
		ntok := &toks[i+1]
		for pi := lo; pi < hi; pi++ {
			succs, fb := m.successors(ents[pi].node, tok, sc.buf[:0])
			sc.buf = succs
			if fb {
				res.Fallbacks++
			}
			for _, s := range succs {
				if !sc.has(s) && m.tokenMatchesNode(ntok, s) {
					sc.mark(s)
					ents = append(ents, layerEntry{node: s, parent: pi})
					if len(ents)-int(hi) >= m.MaxStates {
						break
					}
				}
			}
			if len(ents)-int(hi) >= m.MaxStates {
				break
			}
		}
		if len(ents) == int(hi) {
			if !ntok.Located() {
				break
			}
			res.Reanchors++
			ents = append(ents, layerEntry{node: m.G.Node(ntok.Method, ntok.PC), parent: -1})
		}
		bounds = append(bounds, int32(len(ents)))
	}
	sc.ents, sc.starts = ents, bounds
	nLayers := len(bounds) - 1
	idx := bounds[nLayers-1] + int32(smallest(ents[bounds[nLayers-1]:]))
	path := make([]cfg.NodeID, nLayers)
	for li := nLayers - 1; li >= 0; li-- {
		e := ents[idx]
		path[li] = e.node
		idx = e.parent
		if idx < 0 && li > 0 {
			for lj := li - 1; lj >= 0; lj-- {
				path[lj] = ents[bounds[lj]+int32(smallest(ents[bounds[lj]:bounds[lj+1]]))].node
			}
			break
		}
	}
	res.Path = path
	res.Matched = nLayers
	res.Complete = res.Matched == len(toks)
	return res
}

// locLoopSrc is the loop of the root package's NFA kernels: its trace is
// a genuine ICFG cycle.
const locLoopSrc = `
method B.loop(1) returns int {
    iconst 0
    istore 1
Lhead:
    iload 1
    iload 0
    if_icmpge Ldone
    iload 1
    iconst 3
    imul
    istore 1
    iinc 1 1
    goto Lhead
Ldone:
    iload 1
    ireturn
}
method B.main(0) {
    iconst 5
    invokestatic B.loop
    pop
    return
}
entry B.main
`

// fallbackSrc, built with dynamic calls unresolved, takes every matcher
// fallback: the invokedyn has no call edges (method entries), the
// callbacks return to no static caller (return sites), F.cb2's athrow and
// F.cb's idiv are uncaught in their methods (handler targets); it also
// has a tableswitch and a caught throw.
const fallbackSrc = `
table t0 = F.cb F.cb2
method F.cb(1) returns int {
    iconst 12
    iload 0
    idiv
    ireturn
}
method F.cb2(1) returns int {
    iload 0
    tableswitch 0 default=Ld [L0 L1]
L0:
    iconst 1
    ireturn
L1:
    iconst 7
    athrow
Ld:
    iload 0
    ireturn
}
method F.guard(1) returns int {
Ltry:
    iload 0
    iload 0
    invokedyn t0
    ireturn
Lcatch:
    iconst 100
    ireturn
    handler Ltry Lcatch Lcatch any
}
method F.main(0) {
    iconst 2
    invokestatic F.guard
    pop
    iconst 0
    invokestatic F.guard
    pop
    return
}
entry F.main
`

// walkTokens draws a token run by a random walk over the matcher's NFA:
// each visited node yields a located token (locatedPct percent of the
// time) or an interpreter token, the next node is one of its successors
// (fallback targets included), the walk sometimes jumps to a random node
// (a gap the matcher re-anchors over), and a located token sometimes
// names no real instruction (stale metadata).
func walkTokens(rng *rand.Rand, m *Matcher, n, locatedPct int) []Token {
	g := m.G
	toks := make([]Token, 0, n)
	cur := cfg.NodeID(rng.Intn(g.NumNodes()))
	for len(toks) < n {
		mid, pc := g.Location(cur)
		t := Token{Method: bytecode.NoMethod, Op: g.Instr(cur).Op}
		if t.Op.IsCondBranch() && rng.Intn(5) != 0 {
			t.HasDir, t.Taken = true, rng.Intn(2) == 0
		}
		succs, _ := m.successors(cur, &t, nil)
		if rng.Intn(100) < locatedPct {
			t.Method, t.PC = mid, pc
			switch rng.Intn(40) {
			case 0:
				t.Method = 99
			case 1:
				t.PC = int32(len(g.Prog.Methods[mid].Code) + rng.Intn(3))
			case 2:
				t.PC = -1
			}
		}
		if len(succs) == 0 || rng.Intn(15) == 0 {
			cur = cfg.NodeID(rng.Intn(g.NumNodes()))
		} else {
			cur = succs[rng.Intn(len(succs))]
		}
		toks = append(toks, t)
	}
	return toks
}

// matchOutcome runs one match, turning a panic (stale metadata re-anchored
// at no real node) into a result string.
func matchOutcome(f func() MatchResult) (r MatchResult, panicked string) {
	defer func() {
		if p := recover(); p != nil {
			panicked = fmt.Sprint(p)
		}
	}()
	r = f()
	r.Path = append([]cfg.NodeID(nil), r.Path...)
	return r, ""
}

// TestLocatedStepMatchesGeneralStep: on random mixes of located and
// interpreter tokens, valid and stale locations, over a loop and over a
// program that takes every fallback, MatchFromScratch gives the general
// subset step's path, match length, re-anchors and fallbacks (or the same
// panic) for MaxStates 0, 1, 2 and the default.
func TestLocatedStepMatchesGeneralStep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, prog := range []struct {
		name string
		src  string
		opts cfg.Options
	}{
		{"loop", locLoopSrc, cfg.DefaultOptions()},
		{"fallback", fallbackSrc, cfg.Options{ResolveDynCalls: false}},
	} {
		m := NewMatcher(cfg.BuildICFG(bytecode.MustAssemble(prog.src), prog.opts))
		sc, refSc := m.NewScratch(), m.NewScratch()
		located, fallbacks, reanchors := 0, 0, 0
		for iter := 0; iter < 400; iter++ {
			toks := walkTokens(rng, m, 1+rng.Intn(60), []int{0, 50, 90, 100}[iter%4])
			var starts []cfg.NodeID
			switch rng.Intn(3) {
			case 0:
				starts = m.NodesWithOp(toks[0].Op)
			case 1:
				for n := 0; n < m.G.NumNodes(); n++ {
					if rng.Intn(3) == 0 {
						starts = append(starts, cfg.NodeID(n))
					}
				}
			default:
				for n := 0; n < m.G.NumNodes(); n++ {
					starts = append(starts, cfg.NodeID(n))
				}
			}
			for _, maxStates := range []int{0, 1, 2, 4096} {
				m.MaxStates = maxStates
				got, gotPanic := matchOutcome(func() MatchResult { return m.MatchFromScratch(sc, starts, toks) })
				want, wantPanic := matchOutcome(func() MatchResult { return m.generalMatch(refSc, starts, toks) })
				if gotPanic != wantPanic || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s iter %d MaxStates %d: got %+v (panic %q), want %+v (panic %q)\ntokens %v",
						prog.name, iter, maxStates, got, gotPanic, want, wantPanic, toks)
				}
				fallbacks += want.Fallbacks
				reanchors += want.Reanchors
			}
			for i := 1; i < len(toks); i++ {
				if _, ok := m.locatedNode(&toks[i]); ok {
					located++
				}
			}
		}
		m.MaxStates = 4096
		// The walk must reach the paths under test.
		if located == 0 || reanchors == 0 || prog.name == "fallback" && fallbacks == 0 {
			t.Errorf("%s: %d located steps, %d re-anchors, %d fallbacks", prog.name, located, reanchors, fallbacks)
		}
	}
}
