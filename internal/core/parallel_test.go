package core

import (
	"reflect"
	"sync"
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/cfg"
)

// These tests are the race-regression suite for the read-only Matcher
// contract: after NewMatcher returns, every query path (CtrlReach,
// MatchFromScratch, IsAcceptedAbstractScratch) must be safe for concurrent
// callers that each bring their own scratch.
// Run them under -race (ci.sh does) — before ctrlReach was precomputed
// eagerly, concurrent CtrlReach calls raced on the lazy memo map.

func TestCtrlReachConcurrent(t *testing.T) {
	_, m := fig2Matcher(t)
	n := m.G.NumNodes()

	// Serial baseline: copy out every node's reach set first.
	want := make([][]cfg.NodeID, n)
	for v := 0; v < n; v++ {
		want[v] = append([]cfg.NodeID(nil), m.CtrlReach(cfg.NodeID(v))...)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for v := 0; v < n; v++ {
					got := m.CtrlReach(cfg.NodeID(v))
					if !reflect.DeepEqual(got, want[v]) {
						t.Errorf("goroutine %d: CtrlReach(%d) = %v, want %v", g, v, got, want[v])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMatchFromConcurrent(t *testing.T) {
	_, m := fig2Matcher(t)
	toks := fig2ElseTrace()
	starts := m.NodesWithOp(toks[0].Op)

	want := m.MatchFromScratch(m.NewScratch(), starts, toks)
	if !want.Complete {
		t.Fatalf("baseline incomplete: %d/%d", want.Matched, len(toks))
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := m.NewScratch()
			for rep := 0; rep < 50; rep++ {
				got := m.MatchFromScratch(sc, starts, toks)
				if got.Complete != want.Complete || got.Matched != want.Matched ||
					!reflect.DeepEqual(got.Path, want.Path) {
					t.Errorf("goroutine %d rep %d: diverged from serial result", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestScratchReuseMatchesFresh drives one scratch through dissimilar
// queries back to back: the generation-marked seen sets and the recycled
// layer arena must not leak state between calls. Two cases pin the arena's
// walk-back: a located token no state reaches forces a re-anchor, so the
// layers before it take their smallest state; and a MaxStates cap cuts a
// layer short after the first.
func TestScratchReuseMatchesFresh(t *testing.T) {
	p, m := fig2Matcher(t)
	fun := p.MethodByName("Test.fun")
	full := fig2ElseTrace()
	cases := []struct {
		toks      []Token
		maxStates int     // 0 keeps the matcher's default
		pcs       []int32 // when set, the witness path's pcs
	}{
		{toks: full},
		{toks: []Token{tok(bytecode.ILOAD), tok(bytecode.IADD)}}, // rejected after 1
		{toks: full[:4]},
		{toks: []Token{tok(bytecode.ILOAD), dtok(bytecode.IFEQ, false), tok(bytecode.ILOAD)}},
		// iconst@3, @8 and @12 all lead elsewhere than ireturn@16.
		{toks: []Token{tok(bytecode.ILOAD), tok(bytecode.ICONST), {Op: bytecode.IRETURN, Method: fun.ID, PC: 16}},
			pcs: []int32{0, 3, 16}},
		// An undirected ifeq fans out to iload@7 and iload@2; the cap keeps
		// the first (uncapped, the witness would be 0 1 2 3).
		{toks: []Token{tok(bytecode.ILOAD), tok(bytecode.IFEQ), tok(bytecode.ILOAD), tok(bytecode.ICONST)},
			maxStates: 1, pcs: []int32{0, 1, 7, 8}},
		{toks: full},
	}

	sc := m.NewScratch()
	for rep := 0; rep < 3; rep++ {
		for ci, c := range cases {
			m.MaxStates = 4096
			if c.maxStates > 0 {
				m.MaxStates = c.maxStates
			}
			starts := m.NodesWithOp(c.toks[0].Op)
			want := m.MatchFromScratch(m.NewScratch(), starts, c.toks) // fresh scratch
			got := m.MatchFromScratch(sc, starts, c.toks)
			if c.pcs != nil {
				var pcs []int32
				for _, n := range want.Path {
					_, pc := m.G.Location(n)
					pcs = append(pcs, pc)
				}
				if !reflect.DeepEqual(pcs, c.pcs) {
					t.Fatalf("case %d: witness pcs %v, want %v", ci, pcs, c.pcs)
				}
			}
			if got.Complete != want.Complete || got.Matched != want.Matched ||
				got.Reanchors != want.Reanchors || !reflect.DeepEqual(got.Path, want.Path) {
				t.Fatalf("rep %d case %d: reused scratch diverged (got %d/%v, want %d/%v)",
					rep, ci, got.Matched, got.Complete, want.Matched, want.Complete)
			}
		}
	}
}

// TestIsAcceptedAbstractConcurrent exercises the abstraction-check path
// (used by hole recovery) from multiple goroutines.
func TestIsAcceptedAbstractConcurrent(t *testing.T) {
	p, m := fig2Matcher(t)
	fun := p.MethodByName("Test.fun")
	// Abstract tokens of the else-path trace, all within Test.fun.
	toks := fig2ElseTrace()
	atoks := make([]Token, len(toks))
	for i, tk := range toks {
		tk.Method = fun.ID
		atoks[i] = tk
	}
	starts := m.NodesWithOp(toks[0].Op)
	if len(starts) == 0 {
		t.Fatal("no start nodes")
	}

	want := make([]bool, len(starts))
	for i, s := range starts {
		want[i] = m.IsAcceptedAbstractScratch(m.NewScratch(), s, atoks)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := m.NewScratch()
			for rep := 0; rep < 50; rep++ {
				for i, s := range starts {
					if got := m.IsAcceptedAbstractScratch(sc, s, atoks); got != want[i] {
						t.Errorf("goroutine %d: IsAcceptedAbstractScratch(start %d) = %v, want %v", g, i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
