package core

import (
	"sort"

	"jportal/internal/bytecode"
	"jportal/internal/cfg"
)

// Matcher holds the NFA view of a program's ICFG (Definition 4.1: states
// are instruction nodes, the alphabet is bytecode instructions with branch
// directions, any state can start or accept) together with the control
// skeleton used as the abstract NFA (Definitions 4.2/4.3) and the indexes
// that make reconstruction fast.
type Matcher struct {
	G *cfg.ICFG

	// opIndex[op] lists nodes whose instruction is op (candidate starting
	// states for a trace beginning with op).
	opIndex [][]cfg.NodeID
	// handlerTargets are all exception-handler entries; cross-method
	// unwinding, which the context-insensitive ICFG does not represent,
	// falls back to them.
	handlerTargets []cfg.NodeID
	// entryNodes are all method entries; unresolved dynamic calls fall
	// back to them (the paper's callback search, §4 Discussions).
	entryNodes []cfg.NodeID
	// returnSites are the instructions following any call site; returns
	// from callees the static ICFG did not wire (unresolved dynamic
	// callers) fall back to them.
	returnSites []cfg.NodeID
	// fallback[n] flags n's membership of the three fallback sets above
	// (fbEntry, fbHandler, fbReturnSite), so the located step tests a
	// fallback target without building the set.
	fallback []uint8

	// op[n] is node n's opcode, and span[mid] method mid's node range:
	// the dense tables the per-token queries (tokenMatchesNode,
	// successors, hasSuccessor, locatedNode) read instead of chasing a
	// node's location into the program's code.
	op   []bytecode.Opcode
	span []methodSpan

	// ctrlReach holds, per node, the set of control nodes reachable
	// through non-control instructions only (the ε-closure of the ANFA,
	// Fig 5). It is precomputed for every node at construction time so the
	// matcher is strictly read-only afterwards — safe for any number of
	// concurrent readers with no locking on the hot path.
	ctrlReach [][]cfg.NodeID

	// MaxStates caps subset-simulation layers (deterministic pruning).
	MaxStates int
	// UseContext selects the PDA engine (MatchFromContext) for segment
	// reconstruction instead of the paper's NFA (an evaluated extension;
	// see pda.go).
	UseContext bool
}

// NewMatcher builds the matcher for g.
func NewMatcher(g *cfg.ICFG) *Matcher {
	m := &Matcher{
		G:         g,
		opIndex:   make([][]cfg.NodeID, bytecode.NumOpcodes),
		MaxStates: 4096,
		op:        make([]bytecode.Opcode, g.NumNodes()),
		span:      make([]methodSpan, len(g.Prog.Methods)),
	}
	for mid, meth := range g.Prog.Methods {
		if meth.ID == bytecode.MethodID(mid) {
			// A method stored under another index names no node.
			m.span[mid] = methodSpan{base: g.Entry(meth.ID), n: int32(len(meth.Code))}
		}
		for pc := range meth.Code {
			n := g.Node(meth.ID, int32(pc))
			op := meth.Code[pc].Op
			m.op[n] = op
			m.opIndex[op] = append(m.opIndex[op], n)
			if op.IsCall() && pc+1 < len(meth.Code) {
				m.returnSites = append(m.returnSites, g.Node(meth.ID, int32(pc+1)))
			}
		}
		for _, h := range meth.Handlers {
			m.handlerTargets = append(m.handlerTargets, g.Node(meth.ID, h.Target))
		}
	}
	m.entryNodes = g.MethodEntries()
	m.fallback = make([]uint8, g.NumNodes())
	for _, n := range m.entryNodes {
		m.fallback[n] |= fbEntry
	}
	for _, n := range m.handlerTargets {
		m.fallback[n] |= fbHandler
	}
	for _, n := range m.returnSites {
		m.fallback[n] |= fbReturnSite
	}
	m.precomputeCtrlReach()
	return m
}

// methodSpan is one method's node range in the ICFG's dense numbering:
// nodes base to base+n-1.
type methodSpan struct {
	base cfg.NodeID
	n    int32
}

// Fallback-set flags of Matcher.fallback.
const (
	fbEntry uint8 = 1 << iota
	fbHandler
	fbReturnSite
)

// precomputeCtrlReach computes the ANFA ε-closure of every node eagerly.
// The previous implementation memoised closures lazily in a map, which was
// a data race once segments reconstruct concurrently; eager computation
// removes both the race and any need for a lock on the query path.
func (m *Matcher) precomputeCtrlReach() {
	n := m.G.NumNodes()
	m.ctrlReach = make([][]cfg.NodeID, n)
	seen := make([]int32, n) // generation marks: seen[x] == gen means visited
	gen := int32(0)
	var stack, out []cfg.NodeID
	for v := 0; v < n; v++ {
		gen++
		out = out[:0]
		stack = append(stack[:0], cfg.NodeID(v))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[x] == gen {
				continue
			}
			seen[x] = gen
			if m.op[x].IsControl() {
				out = append(out, x)
				continue
			}
			for _, e := range m.G.Succs[x] {
				if seen[e.To] != gen {
					stack = append(stack, e.To)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		m.ctrlReach[v] = append([]cfg.NodeID(nil), out...)
	}
}

// NodesWithOp returns candidate starting states for a trace beginning with
// op.
func (m *Matcher) NodesWithOp(op bytecode.Opcode) []cfg.NodeID { return m.opIndex[op] }

// tokenMatchesNode implements the symbol match I(N(o)) = s of
// Definition 4.1: located tokens must be at exactly their node; interpreter
// tokens match any node with the same opcode.
func (m *Matcher) tokenMatchesNode(t *Token, n cfg.NodeID) bool {
	if t.Located() {
		mid, pc := m.G.Location(n)
		return mid == t.Method && pc == t.PC
	}
	return m.op[n] == t.Op
}

// successors returns the NFA transition targets from node n given that the
// token consumed at n was t (the token's branch direction selects among a
// conditional's out-edges). The boolean reports whether a fallback
// (handler targets or method entries) was used. The result always aliases
// buf's backing array (fallback sets are copied in), so callers may retain
// the returned slice as their reusable scratch buffer.
func (m *Matcher) successors(n cfg.NodeID, t *Token, buf []cfg.NodeID) ([]cfg.NodeID, bool) {
	op := m.op[n]
	edges := m.G.Succs[n]
	switch {
	case op.IsCondBranch():
		for _, e := range edges {
			if !t.HasDir {
				if e.Kind == cfg.EdgeTaken || e.Kind == cfg.EdgeFallthrough {
					buf = append(buf, e.To)
				}
				continue
			}
			if t.Taken && e.Kind == cfg.EdgeTaken || !t.Taken && e.Kind == cfg.EdgeFallthrough {
				buf = append(buf, e.To)
			}
		}
	case op == bytecode.GOTO:
		for _, e := range edges {
			if e.Kind == cfg.EdgeJump {
				buf = append(buf, e.To)
			}
		}
	case op == bytecode.TABLESWITCH:
		for _, e := range edges {
			if e.Kind == cfg.EdgeSwitch {
				buf = append(buf, e.To)
			}
		}
	case op.IsCall():
		for _, e := range edges {
			if e.Kind == cfg.EdgeCall {
				buf = append(buf, e.To)
			}
		}
		if len(buf) == 0 {
			// The statically built ICFG misses this call's targets
			// (dynamic dispatch/reflection): inspect all potential
			// entry points (§4, Discussions).
			return append(buf, m.entryNodes...), true
		}
	case op.IsReturn():
		for _, e := range edges {
			if e.Kind == cfg.EdgeReturn {
				buf = append(buf, e.To)
			}
		}
		if len(buf) == 0 {
			// No statically known caller (the method is only reachable
			// through unresolved dynamic dispatch): any return site.
			return append(buf, m.returnSites...), true
		}
	case op == bytecode.ATHROW:
		for _, e := range edges {
			if e.Kind == cfg.EdgeThrow {
				buf = append(buf, e.To)
			}
		}
		if len(buf) == 0 {
			return append(buf, m.handlerTargets...), true
		}
	default:
		for _, e := range edges {
			if e.Kind == cfg.EdgeFallthrough {
				buf = append(buf, e.To)
			}
		}
		// A may-throw instruction can also transfer to a handler.
		if op.MayThrow() {
			for _, e := range edges {
				if e.Kind == cfg.EdgeThrow {
					buf = append(buf, e.To)
				}
			}
			if len(edges) == 0 || onlyThrowless(edges) {
				// Uncaught in this method: cross-method unwind.
				buf = append(buf, m.handlerTargets...)
				return buf, true
			}
		}
	}
	return buf, false
}

func onlyThrowless(edges []cfg.Edge) bool {
	for _, e := range edges {
		if e.Kind == cfg.EdgeThrow {
			return false
		}
	}
	return true
}

// hasSuccessor reports whether to is among successors(n, t) — and, like
// successors, whether a fallback set was used — without building the
// list: the same edge-kind filter, scanned for to, and the fallback
// sets tested through their per-node flags.
func (m *Matcher) hasSuccessor(n cfg.NodeID, t *Token, to cfg.NodeID) (has, fb bool) {
	op := m.op[n]
	edges := m.G.Succs[n]
	switch {
	case op.IsCondBranch():
		for _, e := range edges {
			if e.To != to {
				continue
			}
			if !t.HasDir {
				if e.Kind == cfg.EdgeTaken || e.Kind == cfg.EdgeFallthrough {
					return true, false
				}
			} else if t.Taken && e.Kind == cfg.EdgeTaken || !t.Taken && e.Kind == cfg.EdgeFallthrough {
				return true, false
			}
		}
		return false, false
	case op == bytecode.GOTO:
		_, has = edgeTo(edges, cfg.EdgeJump, to)
		return has, false
	case op == bytecode.TABLESWITCH:
		_, has = edgeTo(edges, cfg.EdgeSwitch, to)
		return has, false
	case op.IsCall():
		return m.kindOrFallback(edges, cfg.EdgeCall, to, fbEntry)
	case op.IsReturn():
		return m.kindOrFallback(edges, cfg.EdgeReturn, to, fbReturnSite)
	case op == bytecode.ATHROW:
		return m.kindOrFallback(edges, cfg.EdgeThrow, to, fbHandler)
	}
	_, has = edgeTo(edges, cfg.EdgeFallthrough, to)
	if op.MayThrow() {
		anyThrow, hasThrow := edgeTo(edges, cfg.EdgeThrow, to)
		has = has || hasThrow
		if !anyThrow {
			// Uncaught in this method: cross-method unwind.
			return has || m.fallback[to]&fbHandler != 0, true
		}
	}
	return has, false
}

// kindOrFallback is hasSuccessor for a transfer whose successors are its
// kind-edges, or the flag's fallback set when it has none.
func (m *Matcher) kindOrFallback(edges []cfg.Edge, kind cfg.EdgeKind, to cfg.NodeID, flag uint8) (has, fb bool) {
	hasKind, has := edgeTo(edges, kind, to)
	if !hasKind {
		return m.fallback[to]&flag != 0, true
	}
	return has, false
}

// edgeTo reports whether edges hold any edge of kind, and one to to.
func edgeTo(edges []cfg.Edge, kind cfg.EdgeKind, to cfg.NodeID) (hasKind, hit bool) {
	for _, e := range edges {
		if e.Kind == kind {
			hasKind = true
			if e.To == to {
				return true, true
			}
		}
	}
	return hasKind, false
}

// locatedNode returns the node a located token names, if its (method, pc)
// is a real instruction. Stale metadata can name neither. An interpreter
// token's NoMethod is out of range, like any stale method.
func (m *Matcher) locatedNode(t *Token) (cfg.NodeID, bool) {
	if uint(t.Method) >= uint(len(m.span)) {
		return 0, false
	}
	s := m.span[t.Method]
	if uint32(t.PC) >= uint32(s.n) {
		return 0, false
	}
	return s.base + cfg.NodeID(t.PC), true
}

// CtrlReach returns the ANFA ε-closure of n: the control nodes reachable
// from n through zero or more non-control instructions (n itself if it is a
// control node). The closure is precomputed at construction; the returned
// slice is shared and must not be mutated.
func (m *Matcher) CtrlReach(n cfg.NodeID) []cfg.NodeID {
	return m.ctrlReach[n]
}

// MatchScratch holds the per-call working state of the subset simulation:
// the dedup marks, the successor buffer, the layer arena and the path
// buffer. One scratch serves one goroutine at a time; a worker reuses its
// scratch across calls so the hot path stops allocating. Obtain one with
// Matcher.NewScratch and pass it to the *Scratch entry points.
type MatchScratch struct {
	// seen is a generation-marked dense set over NodeIDs: seen[n] == gen
	// means n is a member. Bumping gen clears the set in O(1).
	seen []int32
	gen  int32
	// buf is the successor scratch buffer.
	buf []cfg.NodeID
	// ents and starts are MatchFromScratch's layer arena: the per-token
	// state layers, back to back, layer i being ents[starts[i]:starts[i+1]].
	ents   []layerEntry
	starts []int32
	// states/next recycle the abstract-state slices of
	// IsAcceptedAbstractScratch.
	states, next []cfg.NodeID
	// pathBuf recycles the witness-path slice MatchFromScratch returns
	// (aliased by MatchResult.Path; see that method's contract).
	pathBuf []cfg.NodeID
	// located holds candidateStarts' one start state for a located token.
	located [1]cfg.NodeID
	// pieces and over recycle ReconstructSegmentScratch's piece records
	// and their witness overrides (reconstruct.go).
	pieces []piece
	over   []override
}

// NewScratch allocates a scratch sized for this matcher's ICFG.
func (m *Matcher) NewScratch() *MatchScratch {
	return &MatchScratch{seen: make([]int32, m.G.NumNodes())}
}

// reset starts a fresh membership generation.
func (sc *MatchScratch) reset() {
	sc.gen++
	if sc.gen == 0 { // wrapped: clear marks once every 2^31 generations
		for i := range sc.seen {
			sc.seen[i] = 0
		}
		sc.gen = 1
	}
}

func (sc *MatchScratch) mark(n cfg.NodeID) { sc.seen[n] = sc.gen }
func (sc *MatchScratch) has(n cfg.NodeID) bool {
	return sc.seen[n] == sc.gen
}

// AbstractTokens returns the tier-2 (control-structure) abstraction of toks
// (Definition 4.2).
func AbstractTokens(toks []Token) []Token {
	var out []Token
	for i := range toks {
		if toks[i].Op.IsControl() {
			out = append(out, toks[i])
		}
	}
	return out
}

// IsAcceptedAbstractScratch checks whether the abstract token sequence can
// be matched by the ANFA starting from concrete node start (Theorem 4.4's
// necessary condition). atoks must already be abstracted. sc is the
// caller's scratch (one scratch per goroutine).
func (m *Matcher) IsAcceptedAbstractScratch(sc *MatchScratch, start cfg.NodeID, atoks []Token) bool {
	if len(atoks) == 0 {
		return true
	}
	// ε-close the start, filter by the first abstract symbol.
	states := sc.states[:0]
	for _, c := range m.CtrlReach(start) {
		if m.tokenMatchesNode(&atoks[0], c) {
			states = append(states, c)
		}
	}
	next := sc.next[:0]
	for i := 0; i+1 < len(atoks); i++ {
		next = next[:0]
		sc.reset()
		for _, s := range states {
			succs, _ := m.successors(s, &atoks[i], sc.buf[:0])
			sc.buf = succs
			for _, scc := range succs {
				for _, c := range m.CtrlReach(scc) {
					if !sc.has(c) && m.tokenMatchesNode(&atoks[i+1], c) {
						sc.mark(c)
						next = append(next, c)
					}
				}
			}
		}
		if len(next) == 0 {
			sc.states, sc.next = states, next
			return false
		}
		if len(next) > m.MaxStates {
			next = next[:m.MaxStates]
		}
		states, next = next, states
	}
	ok := len(states) > 0
	sc.states, sc.next = states, next
	return ok
}

// MatchResult is the outcome of projecting a token run onto the ICFG.
type MatchResult struct {
	// Path holds one node per matched token.
	Path []cfg.NodeID
	// Matched is the number of tokens consumed (len(Path)).
	Matched int
	// Complete reports whether every token matched.
	Complete bool
	// Reanchors counts located-token re-anchorings (debug-info gaps the
	// matcher stepped over).
	Reanchors int
	// Fallbacks counts uses of the entry/handler fallbacks.
	Fallbacks int
}

// layerEntry is one NFA state with its predecessor for path recovery.
type layerEntry struct {
	node cfg.NodeID
	// parent is the predecessor's index in the arena (MatchScratch.ents),
	// -1 in the first layer and at a re-anchor.
	parent int32
}

// MatchFromScratch runs the NFA subset simulation over toks beginning from
// the given start states, returning the longest matched prefix and one
// witness path (the disambiguated projection). It is the engine beneath
// both Algorithm 1 and Algorithm 2 and the production pipeline. The
// matcher itself is read-only, so any number of goroutines may match
// concurrently as long as each brings its own scratch. The returned
// MatchResult.Path aliases the scratch's recycled path buffer: it is
// valid until the next MatchFromScratch call with the same scratch, so
// copy it out (as ReconstructSegmentScratch does) before matching again.
func (m *Matcher) MatchFromScratch(sc *MatchScratch, starts []cfg.NodeID, toks []Token) MatchResult {
	res, _ := m.match(sc, starts, toks)
	return res
}

// match is MatchFromScratch, also reporting whether the witness walk
// crossed a re-anchor (and so took every earlier layer's smallest state),
// which reconstruction's piece join needs (reconstruct.go).
func (m *Matcher) match(sc *MatchScratch, starts []cfg.NodeID, toks []Token) (res MatchResult, crossed bool) {
	if len(toks) == 0 {
		return MatchResult{Complete: true}, false
	}
	// Every layer holds at least one state: size the arena for one per
	// token up front rather than regrow it layer by layer.
	if cap(sc.ents) < len(toks) {
		sc.ents = make([]layerEntry, 0, len(toks))
	}
	if cap(sc.starts) <= len(toks) {
		sc.starts = make([]int32, 0, len(toks)+1)
	}
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
		return res, false
	}
	bounds = append(bounds, int32(len(ents)))

	for i := 0; i+1 < len(toks); i++ {
		lo, hi := bounds[i], bounds[i+1]
		tok := &toks[i]
		ntok := &toks[i+1]
		if n, ok := m.locatedNode(ntok); ok {
			// A located next token matches exactly one node, so the
			// next layer is that node alone, its parent the first state
			// of this layer that steps to it (DESIGN.md §12). The
			// general step's MaxStates cut-off cannot fire: one state
			// reaches it only if MaxStates <= 1, and then this layer
			// holds one state too.
			parent := int32(-1)
			for pi := lo; pi < hi; pi++ {
				has, fb := m.hasSuccessor(ents[pi].node, tok, n)
				if fb {
					res.Fallbacks++
				}
				if has && parent < 0 {
					parent = pi
				}
			}
			if parent < 0 {
				res.Reanchors++
			}
			ents = append(ents, layerEntry{node: n, parent: parent})
			bounds = append(bounds, int32(len(ents)))
			continue
		}
		sc.reset()
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
			// Debug-info imprecision (elided instructions, approximate
			// records) broke the chain; re-anchor at the known location
			// rather than splitting the run.
			res.Reanchors++
			ents = append(ents, layerEntry{node: m.G.Node(ntok.Method, ntok.PC), parent: -1})
		}
		bounds = append(bounds, int32(len(ents)))
	}
	sc.ents, sc.starts = ents, bounds
	nLayers := len(bounds) - 1

	// Walk back from the lexicographically smallest final state.
	idx := bounds[nLayers-1] + int32(smallest(ents[bounds[nLayers-1]:]))
	if cap(sc.pathBuf) < nLayers {
		sc.pathBuf = make([]cfg.NodeID, nLayers*2)
	}
	path := sc.pathBuf[:nLayers]
	for li := nLayers - 1; li >= 0; li-- {
		e := ents[idx]
		path[li] = e.node
		idx = e.parent
		if idx < 0 && li > 0 {
			// Re-anchor boundary: earlier layers keep their smallest
			// state as the witness.
			for lj := li - 1; lj >= 0; lj-- {
				path[lj] = ents[bounds[lj]+int32(smallest(ents[bounds[lj]:bounds[lj+1]]))].node
			}
			crossed = true
			break
		}
	}
	res.Path = path
	res.Matched = nLayers
	res.Complete = res.Matched == len(toks)
	return res, crossed
}

func smallest(l []layerEntry) int {
	b := 0
	for i := 1; i < len(l); i++ {
		if l[i].node < l[b].node {
			b = i
		}
	}
	return b
}

// EnumerateAndTest is Algorithm 1: try every node of the ICFG as the start
// state and return the first whose NFA accepts the whole sequence. It is
// the quadratic baseline the abstraction-guided algorithm improves on; kept
// for the ablation benchmarks.
func (m *Matcher) EnumerateAndTest(toks []Token) (MatchResult, bool) {
	sc := m.NewScratch()
	for n := cfg.NodeID(0); int(n) < m.G.NumNodes(); n++ {
		if r := m.MatchFromScratch(sc, []cfg.NodeID{n}, toks); r.Complete {
			return detach(r), true
		}
	}
	return MatchResult{}, false
}

// AbstractionGuided is Algorithm 2: for each candidate start (indexed by
// the first symbol), first test the abstract sequence against the ANFA/DFA
// and only on abstract acceptance run the concrete match.
func (m *Matcher) AbstractionGuided(toks []Token) (MatchResult, bool) {
	if len(toks) == 0 {
		return MatchResult{Complete: true}, true
	}
	sc := m.NewScratch()
	atoks := AbstractTokens(toks)
	for _, n := range m.candidateStarts(sc, &toks[0]) {
		if !m.IsAcceptedAbstractScratch(sc, n, atoks) {
			continue
		}
		if r := m.MatchFromScratch(sc, []cfg.NodeID{n}, toks); r.Complete {
			return detach(r), true
		}
	}
	return MatchResult{}, false
}

// detach copies a kept witness path out of the scratch buffer it aliases.
func detach(r MatchResult) MatchResult {
	r.Path = append([]cfg.NodeID(nil), r.Path...)
	return r
}

// candidateStarts returns the states a match starting at t may begin in:
// the token's own node when it is located, else every node with its
// opcode. A located token's start is held in sc, valid until the next call
// on sc.
func (m *Matcher) candidateStarts(sc *MatchScratch, t *Token) []cfg.NodeID {
	if t.Located() {
		sc.located[0] = m.G.Node(t.Method, t.PC)
		return sc.located[:]
	}
	return m.opIndex[t.Op]
}
