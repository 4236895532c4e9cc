// Package ballarus implements Ball-Larus efficient path profiling
// (Ball & Larus, MICRO '96 — the paper's baseline [25]): acyclic path
// numbering over a method CFG with backedges re-routed through virtual
// ENTRY/EXIT edges, minimal edge increment values, and the probe plan an
// instrumenter needs (which edges get `r += v`, what backedges do, where
// paths are counted).
package ballarus

import (
	"fmt"
	"math"
	"sort"

	"jportal/internal/bytecode"
	"jportal/internal/cfg"
)

// MaxPaths caps the per-method path count; methods exceeding it are
// reported as unprofilable (callers fall back to edge profiling, as
// practical BL implementations do).
const MaxPaths = 1 << 20

// EdgeKey identifies a CFG edge by source block, kind and argument (enough
// to be unique in our CFGs).
type EdgeKey struct {
	From, To int
	Kind     cfg.EdgeKind
	Arg      int32
}

func keyOf(e cfg.BlockEdge) EdgeKey {
	return EdgeKey{From: e.From, To: e.To, Kind: e.Kind, Arg: e.Arg}
}

// Increment is the instrumentation action for one real CFG edge.
type Increment struct {
	Edge EdgeKey
	// Add is the value added to the path register when the edge executes.
	Add int64
	// Backedge marks loop backedges: executing one ends the current path
	// (count[r + Add]) and starts a new one with register Reset.
	Backedge bool
	Reset    int64
}

// Numbering is the complete Ball-Larus plan for one method.
type Numbering struct {
	Method *bytecode.Method
	G      *cfg.CFG
	// NumPaths is the total number of acyclic paths (the counter table
	// size).
	NumPaths int64
	// Increments lists the edges needing instrumentation (Add != 0 or
	// backedges), in deterministic order.
	Increments []Increment
	// incBy provides lookup by edge.
	incBy map[EdgeKey]Increment
}

// IncrementFor returns the action for edge e (zero Increment if the edge
// needs no probe).
func (n *Numbering) IncrementFor(e cfg.BlockEdge) (Increment, bool) {
	inc, ok := n.incBy[keyOf(e)]
	return inc, ok
}

// Number computes the Ball-Larus numbering for m. It returns an error when
// the method's path count exceeds MaxPaths or the CFG is irreducible in a
// way the algorithm cannot handle.
func Number(m *bytecode.Method) (*Numbering, error) {
	g := cfg.Build(m)
	n := &Numbering{Method: m, G: g, incBy: make(map[EdgeKey]Increment)}

	isBack := make(map[EdgeKey]bool)
	for _, e := range cfg.BackEdges(g) {
		isBack[keyOf(e)] = true
	}

	// The DAG: real edges minus backedges, plus virtual edges
	// ENTRY->header and latch->EXIT per backedge. Blocks with no DAG
	// successors (returns, throws, latches) flow to EXIT. ENTRY is
	// implicit: paths start at block 0 or at a loop header.
	nb := len(g.Blocks)
	exitID := nb // virtual EXIT node id

	succs := make([][]cfg.BlockEdge, nb)
	reach := cfg.Reachable(g)
	for _, e := range g.Edges {
		if isBack[keyOf(e)] {
			continue
		}
		succs[e.From] = append(succs[e.From], e)
	}

	// numPaths over the DAG in reverse topological order.
	numPaths := make([]int64, nb+1)
	numPaths[exitID] = 1
	order, err := topoOrder(nb, succs, reach)
	if err != nil {
		return nil, fmt.Errorf("ballarus %s: %v", m.FullName(), err)
	}
	val := make(map[EdgeKey]int64)
	for i := len(order) - 1; i >= 0; i-- {
		b := order[i]
		var sum int64
		hasDAGSucc := false
		for _, e := range succs[b] {
			val[keyOf(e)] = sum
			sum += numPaths[e.To]
			hasDAGSucc = true
			if sum > MaxPaths {
				return nil, fmt.Errorf("ballarus %s: path explosion (> %d)", m.FullName(), MaxPaths)
			}
		}
		// Blocks whose only DAG successor is EXIT (returns, throws,
		// backedge latches without other successors).
		if !hasDAGSucc {
			sum = numPaths[exitID]
		} else if endsPath(g, b, isBack) {
			// The block also has a virtual edge to EXIT (a backedge
			// leaves from it); that edge's value is the running sum.
			sum += numPaths[exitID]
		}
		numPaths[b] = sum
	}
	n.NumPaths = numPaths[0]
	if n.NumPaths <= 0 || n.NumPaths > MaxPaths {
		return nil, fmt.Errorf("ballarus %s: bad path count %d", m.FullName(), n.NumPaths)
	}

	// Backedge latch->EXIT virtual edge values: the running sum at the
	// latch after its real DAG successors.
	latchExitVal := make(map[int]int64)
	for b := 0; b < nb; b++ {
		var sum int64
		for _, e := range succs[b] {
			sum += numPaths[e.To]
		}
		latchExitVal[b] = sum
	}
	// ENTRY->header virtual edge values: headers are numbered after the
	// real entry's paths. Following Ball-Larus, Val(ENTRY->h) is the sum
	// of numPaths of earlier ENTRY successors; the real entry block is
	// first.
	headerVal := make(map[int]int64)
	{
		headers := map[int]bool{}
		for k := range isBack {
			headers[k.To] = true
		}
		hs := make([]int, 0, len(headers))
		for h := range headers {
			hs = append(hs, h)
		}
		sort.Ints(hs)
		run := numPaths[0]
		for _, h := range hs {
			headerVal[h] = run
			run += numPaths[h]
			if run > math.MaxInt32 {
				return nil, fmt.Errorf("ballarus %s: path explosion with headers", m.FullName())
			}
		}
		// The total table size includes paths starting at headers.
		n.NumPaths = run
		if n.NumPaths > MaxPaths {
			return nil, fmt.Errorf("ballarus %s: path explosion (> %d)", m.FullName(), MaxPaths)
		}
	}

	for _, e := range g.Edges {
		k := keyOf(e)
		if isBack[k] {
			n.add(Increment{
				Edge:     k,
				Add:      latchExitVal[e.From],
				Backedge: true,
				Reset:    headerVal[e.To],
			})
			continue
		}
		if v := val[k]; v != 0 {
			n.add(Increment{Edge: k, Add: v})
		}
	}
	sort.Slice(n.Increments, func(i, j int) bool {
		a, b := n.Increments[i].Edge, n.Increments[j].Edge
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Arg < b.Arg
	})
	return n, nil
}

func (n *Numbering) add(inc Increment) {
	n.Increments = append(n.Increments, inc)
	n.incBy[inc.Edge] = inc
}

// endsPath reports whether a backedge leaves block b.
func endsPath(g *cfg.CFG, b int, isBack map[EdgeKey]bool) bool {
	for _, e := range g.Succs[b] {
		if isBack[keyOf(e)] {
			return true
		}
	}
	return false
}

// topoOrder returns a topological order of the DAG restricted to reachable
// blocks (unreachable blocks are appended; they have no paths).
func topoOrder(nb int, succs [][]cfg.BlockEdge, reach []bool) ([]int, error) {
	state := make([]uint8, nb) // 0 unvisited, 1 in-stack, 2 done
	var order []int
	var visit func(int) error
	visit = func(b int) error {
		switch state[b] {
		case 1:
			return fmt.Errorf("cycle through block %d after backedge removal (irreducible CFG)", b)
		case 2:
			return nil
		}
		state[b] = 1
		for _, e := range succs[b] {
			if err := visit(e.To); err != nil {
				return err
			}
		}
		state[b] = 2
		order = append(order, b)
		return nil
	}
	for b := 0; b < nb; b++ {
		if reach[b] {
			if err := visit(b); err != nil {
				return nil, err
			}
		}
	}
	// order is reverse-topological; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	// Append unreachable blocks (no effect on numbering).
	for b := 0; b < nb; b++ {
		if !reach[b] {
			order = append(order, b)
		}
	}
	return order, nil
}

// PathCount replays a block-level trace through the numbering and returns
// the path IDs it produces (used to validate instrumentation and to derive
// path profiles from reconstructed flow).
func (n *Numbering) PathCount(blocks []int) []int64 {
	var paths []int64
	r := int64(0)
	started := false
	prev := -1
	for _, b := range blocks {
		if !started {
			started = true
			prev = b
			continue
		}
		// Find the edge prev->b.
		var edge *cfg.BlockEdge
		for i := range n.G.Succs[prev] {
			if n.G.Succs[prev][i].To == b {
				edge = &n.G.Succs[prev][i]
				break
			}
		}
		if edge == nil {
			// Discontinuity (e.g. interprocedural): close the current
			// path and restart.
			paths = append(paths, r)
			r = 0
			prev = b
			continue
		}
		if inc, ok := n.IncrementFor(*edge); ok {
			if inc.Backedge {
				paths = append(paths, r+inc.Add)
				r = inc.Reset
				prev = b
				continue
			}
			r += inc.Add
		}
		prev = b
	}
	if started {
		paths = append(paths, r)
	}
	return paths
}
