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
// queries back to back: the generation-marked seen sets and recycled
// layer buffers must not leak state between calls.
func TestScratchReuseMatchesFresh(t *testing.T) {
	_, m := fig2Matcher(t)
	full := fig2ElseTrace()
	cases := [][]Token{
		full,
		{tok(bytecode.ILOAD), tok(bytecode.IADD)}, // rejected after 1
		full[:4],
		{tok(bytecode.ILOAD), dtok(bytecode.IFEQ, false), tok(bytecode.ILOAD)},
		full,
	}

	sc := m.NewScratch()
	for rep := 0; rep < 3; rep++ {
		for ci, toks := range cases {
			starts := m.NodesWithOp(toks[0].Op)
			want := m.MatchFromScratch(m.NewScratch(), starts, toks) // fresh scratch
			got := m.MatchFromScratch(sc, starts, toks)
			if got.Complete != want.Complete || got.Matched != want.Matched ||
				!reflect.DeepEqual(got.Path, want.Path) {
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
