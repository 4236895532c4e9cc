package core

import (
	"jportal/internal/cfg"
)

// Context-sensitive (PDA) matching — the alternative formulation the paper
// discusses and sets aside in §4 ("Another way to model an ICFG is to use
// the pushdown automaton"). The NFA connects every return to every
// compatible return site; the PDA threads a call stack through matching so
// a return goes back to the caller that actually made the call. Because a
// hardware trace can begin mid-execution, the stack may have an unknown
// prefix: a return on an empty stack falls back to the NFA's behaviour.
//
// This is implemented as an optional engine (MatchFromContext) so the
// ablation benchmarks can quantify the precision/cost trade the paper
// alludes to.

// stackNode is an immutable linked call stack; tails are shared between
// states so pushing is O(1).
type stackNode struct {
	ret   cfg.NodeID
	next  *stackNode
	depth int32
}

func push(s *stackNode, ret cfg.NodeID) *stackNode {
	d := int32(1)
	if s != nil {
		d = s.depth + 1
	}
	return &stackNode{ret: ret, next: s, depth: d}
}

// pdaEntry is one PDA configuration: an ICFG node plus a call stack.
type pdaEntry struct {
	node   cfg.NodeID
	stack  *stackNode
	parent int32
}

// pdaKey approximates configuration identity for deduplication: the node,
// the top-of-stack and the depth. Two configurations agreeing on all three
// almost always share the whole stack in practice (tails are built from the
// same prefix states).
type pdaKey struct {
	node  cfg.NodeID
	top   cfg.NodeID
	depth int32
}

// MaxStackDepth bounds tracked call context; deeper frames degrade to the
// NFA's context-insensitive behaviour (the unknown-prefix rule).
const MaxStackDepth = 64

// MatchFromContext is MatchFromScratch with call-context tracking: calls push
// their return site, returns pop and must go exactly there. It returns the
// same MatchResult shape; Fallbacks additionally counts empty-stack
// returns.
func (m *Matcher) MatchFromContext(starts []cfg.NodeID, toks []Token) MatchResult {
	if len(toks) == 0 {
		return MatchResult{Complete: true}
	}
	var res MatchResult
	layer := make([]pdaEntry, 0, len(starts))
	for _, s := range starts {
		if m.tokenMatchesNode(&toks[0], s) {
			layer = append(layer, pdaEntry{node: s, parent: -1})
		}
		if len(layer) >= m.MaxStates {
			break
		}
	}
	if len(layer) == 0 {
		return res
	}
	layers := make([][]pdaEntry, 1, len(toks))
	layers[0] = layer

	var buf []cfg.NodeID
	for i := 0; i+1 < len(toks); i++ {
		cur := layers[i]
		next := make([]pdaEntry, 0, len(cur))
		seen := make(map[pdaKey]bool, len(cur))
		tok := &toks[i]
		ntok := &toks[i+1]
		for pi := range cur {
			e := &cur[pi]
			ins := m.G.Instr(e.node)
			emit := func(n cfg.NodeID, st *stackNode) {
				k := pdaKey{node: n, top: cfg.NoNode}
				if st != nil {
					k.top = st.ret
					k.depth = st.depth
				}
				if !seen[k] && m.tokenMatchesNode(ntok, n) {
					seen[k] = true
					next = append(next, pdaEntry{node: n, stack: st, parent: int32(pi)})
				}
			}
			switch {
			case ins.Op.IsCall():
				// Push the return site, bounded.
				st := e.stack
				mid, pc := m.G.Location(e.node)
				meth := m.G.Prog.Methods[mid]
				if pc+1 < int32(len(meth.Code)) && (st == nil || st.depth < MaxStackDepth) {
					st = push(st, m.G.Node(mid, pc+1))
				}
				succs, fb := m.successors(e.node, tok, buf[:0])
				buf = succs
				if fb {
					res.Fallbacks++
				}
				for _, sc := range succs {
					emit(sc, st)
				}
			case ins.Op.IsReturn():
				if e.stack != nil {
					// Precise: return exactly to the caller.
					emit(e.stack.ret, e.stack.next)
				} else {
					// Unknown stack prefix: the NFA behaviour.
					res.Fallbacks++
					succs, _ := m.successors(e.node, tok, buf[:0])
					buf = succs
					for _, sc := range succs {
						emit(sc, nil)
					}
				}
			default:
				succs, fb := m.successors(e.node, tok, buf[:0])
				buf = succs
				if fb {
					res.Fallbacks++
				}
				for _, sc := range succs {
					emit(sc, e.stack)
				}
			}
			if len(next) >= m.MaxStates {
				break
			}
		}
		if len(next) == 0 {
			if ntok.Located() {
				res.Reanchors++
				next = append(next, pdaEntry{node: m.G.Node(ntok.Method, ntok.PC), parent: -1})
			} else {
				break
			}
		}
		layers = append(layers, next)
	}

	final := layers[len(layers)-1]
	best := 0
	for i := 1; i < len(final); i++ {
		if final[i].node < final[best].node {
			best = i
		}
	}
	path := make([]cfg.NodeID, len(layers))
	idx := int32(best)
	for li := len(layers) - 1; li >= 0; li-- {
		e := layers[li][idx]
		path[li] = e.node
		idx = e.parent
		if idx < 0 && li > 0 {
			for lj := li - 1; lj >= 0; lj-- {
				b := 0
				for i := 1; i < len(layers[lj]); i++ {
					if layers[lj][i].node < layers[lj][b].node {
						b = i
					}
				}
				path[lj] = layers[lj][b].node
			}
			break
		}
	}
	res.Path = path
	res.Matched = len(layers)
	res.Complete = res.Matched == len(toks)
	return res
}
