// Package cfg builds control-flow graphs from bytecode: per-method basic
// block CFGs (used by the JIT and the Ball-Larus baselines) and the
// per-instruction interprocedural CFG (ICFG) that JPortal's reconstruction
// treats as an NFA (paper §4).
package cfg

import (
	"fmt"

	"jportal/internal/bytecode"
)

// EdgeKind classifies CFG/ICFG edges.
type EdgeKind uint8

const (
	// EdgeFallthrough is sequential flow, including the not-taken side of a
	// conditional branch.
	EdgeFallthrough EdgeKind = iota
	// EdgeTaken is the taken side of a conditional branch.
	EdgeTaken
	// EdgeJump is an unconditional goto.
	EdgeJump
	// EdgeSwitch is a tableswitch case (Arg = case key) or default
	// (Arg = switchDefault).
	EdgeSwitch
	// EdgeCall goes from a call instruction to a callee entry.
	EdgeCall
	// EdgeReturn goes from a return instruction to an instruction
	// following some call site that may invoke this method.
	EdgeReturn
	// EdgeThrow goes from a potentially-throwing instruction to an
	// exception handler covering it in the same method.
	EdgeThrow
)

// SwitchDefault marks the default edge of a tableswitch in Edge.Arg.
const SwitchDefault int32 = -1 << 30

func (k EdgeKind) String() string {
	switch k {
	case EdgeFallthrough:
		return "fall"
	case EdgeTaken:
		return "taken"
	case EdgeJump:
		return "jump"
	case EdgeSwitch:
		return "switch"
	case EdgeCall:
		return "call"
	case EdgeReturn:
		return "return"
	case EdgeThrow:
		return "throw"
	}
	return fmt.Sprintf("edgekind#%d", uint8(k))
}

// Block is a basic block: the half-open instruction range [Start, End) of a
// method.
type Block struct {
	ID         int
	Start, End int32
}

// Last returns the index of the block's terminator (its final instruction).
func (b *Block) Last() int32 { return b.End - 1 }

// BlockEdge is an edge between blocks of one method's CFG.
type BlockEdge struct {
	From, To int
	Kind     EdgeKind
	Arg      int32
}

// CFG is a single method's basic-block control-flow graph.
type CFG struct {
	Method *bytecode.Method
	Blocks []*Block
	// BlockOf maps each instruction index to its block ID.
	BlockOf []int
	Succs   [][]BlockEdge
	Preds   [][]BlockEdge
	// Edges lists every edge once, in deterministic order.
	Edges []BlockEdge
}

// Build constructs the basic-block CFG of m. Exception edges are included
// (kind EdgeThrow) from each block containing a may-throw instruction to the
// covering handler blocks.
func Build(m *bytecode.Method) *CFG {
	n := int32(len(m.Code))
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for pc := int32(0); pc < n; pc++ {
		ins := &m.Code[pc]
		for _, t := range ins.BranchTargets() {
			leader[t] = true
		}
		if ins.Op.IsTerminator() && pc+1 < n {
			leader[pc+1] = true
		}
	}
	for _, h := range m.Handlers {
		leader[h.Target] = true
		if h.From < n {
			leader[h.From] = true
		}
		if h.To < n {
			leader[h.To] = true
		}
	}

	g := &CFG{Method: m, BlockOf: make([]int, n)}
	for pc := int32(0); pc < n; pc++ {
		if leader[pc] {
			g.Blocks = append(g.Blocks, &Block{ID: len(g.Blocks), Start: pc})
		}
		b := g.Blocks[len(g.Blocks)-1]
		b.End = pc + 1
		g.BlockOf[pc] = b.ID
	}

	g.Succs = make([][]BlockEdge, len(g.Blocks))
	g.Preds = make([][]BlockEdge, len(g.Blocks))
	addEdge := func(from, to int, kind EdgeKind, arg int32) {
		e := BlockEdge{From: from, To: to, Kind: kind, Arg: arg}
		g.Edges = append(g.Edges, e)
		g.Succs[from] = append(g.Succs[from], e)
		g.Preds[to] = append(g.Preds[to], e)
	}
	for _, b := range g.Blocks {
		ins := &m.Code[b.Last()]
		switch {
		case ins.Op == bytecode.GOTO:
			addEdge(b.ID, g.BlockOf[ins.A], EdgeJump, 0)
		case ins.Op.IsCondBranch():
			addEdge(b.ID, g.BlockOf[ins.A], EdgeTaken, 0)
			if b.End < n {
				addEdge(b.ID, g.BlockOf[b.End], EdgeFallthrough, 0)
			}
		case ins.Op == bytecode.TABLESWITCH:
			for i, t := range ins.Targets {
				addEdge(b.ID, g.BlockOf[t], EdgeSwitch, ins.A+int32(i))
			}
			addEdge(b.ID, g.BlockOf[ins.B], EdgeSwitch, SwitchDefault)
		case ins.Op.IsReturn() || ins.Op == bytecode.ATHROW:
			// no intra-method successor (ATHROW handler edges added below)
		default:
			if b.End < n {
				addEdge(b.ID, g.BlockOf[b.End], EdgeFallthrough, 0)
			}
		}
	}
	// Exception edges: block -> handler for each may-throw instruction
	// covered by a handler. One edge per (block, handler target) pair.
	for _, b := range g.Blocks {
		seen := map[int]bool{}
		for pc := b.Start; pc < b.End; pc++ {
			if !m.Code[pc].Op.MayThrow() {
				continue
			}
			for _, h := range m.Handlers {
				if pc >= h.From && pc < h.To {
					hb := g.BlockOf[h.Target]
					if !seen[hb] {
						seen[hb] = true
						addEdge(b.ID, hb, EdgeThrow, 0)
					}
				}
			}
		}
	}
	return g
}

// EntryBlock returns the entry block ID (always 0).
func (g *CFG) EntryBlock() int { return 0 }
