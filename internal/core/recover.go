package core

import (
	"sort"

	"jportal/internal/cfg"
)

// RecoveryConfig tunes the §5 data-recovery phase.
type RecoveryConfig struct {
	// AnchorLen is x: how many trailing IS tokens form the anchor used to
	// locate candidate CSes (Figure 6's "XEF").
	AnchorLen int
	// ConfirmLen is y: how many post-hole tokens must match to conclude a
	// splice ("BDCA" in Figure 6).
	ConfirmLen int
	// TopN bounds the ranked candidate list tried in order (§5,
	// Recovery).
	TopN int
	// TimeBudgetSlack scales the timestamp-derived fill budget: the hole
	// duration times the observed token rate times this slack.
	TimeBudgetSlack float64
	// MaxFillTokens caps any single fill.
	MaxFillTokens int
	// FallbackWalkMax bounds the ICFG walk used when no CS fits.
	FallbackWalkMax int
	// Disable turns recovery off entirely (ablation C).
	Disable bool
}

// DefaultRecoveryConfig mirrors the paper's setup.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		AnchorLen:       4,
		ConfirmLen:      4,
		TopN:            8,
		TimeBudgetSlack: 1.6,
		MaxFillTokens:   60000,
		FallbackWalkMax: 64,
	}
}

// FillMethod records how a hole was filled.
type FillMethod uint8

const (
	// FillNone: the hole could not be filled.
	FillNone FillMethod = iota
	// FillCS: filled from a matching complete segment whose continuation
	// reconnected with the post-hole instructions (Algorithm 4).
	FillCS
	// FillPartial: spliced from the best-matching CS up to the timestamp
	// budget without reconnecting (an engineering extension: better than
	// discarding the candidate when every CS is shorter than the hole).
	FillPartial
	// FillWalk: filled by walking the ICFG between the hole's endpoints
	// (the paper's random-path fallback).
	FillWalk
)

// Fill is the recovery result for one hole.
type Fill struct {
	Method FillMethod
	Steps  []Step
	// CandidatesTried and TierPrunes are diagnostics for the ablation.
	CandidatesTried int
	TierPrunes      int
}

// Recoverer implements §5 over one thread's reconstructed segments.
type Recoverer struct {
	m     *Matcher
	cfg   RecoveryConfig
	flows []*SegmentFlow

	// keys[si] holds flow si's MatchKeys, computed once at construction
	// (nil for a nil or quarantined flow): every comparison recovery makes
	// reads these instead of re-deriving keys from tokens.
	keys [][]uint64

	// index[si] is flow si's anchor index: hash of AnchorLen consecutive
	// MatchKeys -> positions, each the index just past its anchor (empty
	// for a nil or quarantined flow).
	index []anchorIndex

	// tokenRate is tokens per cycle, estimated from captured data.
	tokenRate float64
}

type anchorPos struct {
	seg int32
	pos int32
}

// anchorIndex is one segment's bucketed multi-map from anchor hash to
// anchor positions, laid out flat (compressed sparse rows): bucket b, the
// low bits of the hash, owns pos[start[b]:start[b+1]]. prepareRecovery
// builds it by one counting sort, so each bucket lists its positions in
// order. A bucket may also hold other hashes' positions; every caller
// verifies an anchor by suffix compare anyway (hash collisions), and
// rejects those before it counts or keeps a position, so the verified
// positions are exactly the anchor's, in the same order.
type anchorIndex struct {
	start []int32 // len = buckets + 1, buckets a power of two
	pos   []int32
}

// visit calls fn for every position in h's bucket of each flow's index,
// flows in order, so in (segment, position) order.
func (r *Recoverer) visit(h uint64, fn func(anchorPos)) {
	for si := range r.index {
		ix := &r.index[si]
		if len(ix.start) == 0 {
			continue // nil or quarantined
		}
		b := h & uint64(len(ix.start)-2)
		for _, p := range ix.pos[ix.start[b]:ix.start[b+1]] {
			fn(anchorPos{seg: int32(si), pos: p})
		}
	}
}

// NewRecoverer collects the recovery caches of all of the thread's
// segments (every segment is a potential CS for some other segment's hole
// — the paper notes "complete" and "incomplete" are relative): their
// MatchKeys and anchor indexes, which a lookup walks one bucket per flow.
//
// Construction prepares every segment the caller has not (prepareRecovery):
// after NewRecoverer returns, the recoverer and all segments are strictly
// read-only, so RecoverHole may be called for different holes from
// concurrent goroutines.
//
// A thread with fewer than two segments has no hole, and a disabled
// recoverer fills none: for either, NewRecoverer builds nothing, so a
// lossless thread pays nothing for recovery.
func NewRecoverer(m *Matcher, flows []*SegmentFlow, cfg RecoveryConfig) *Recoverer {
	r := &Recoverer{m: m, cfg: cfg, flows: flows}
	if cfg.Disable || len(flows) < 2 {
		return r
	}
	r.keys = make([][]uint64, len(flows))
	r.index = make([]anchorIndex, len(flows))
	tokens := 0
	var activeSpan uint64
	for si, f := range flows {
		if f == nil || f.Quarantined {
			// Quarantined segments hold untrusted tokens: splicing them
			// into holes would launder corrupt data back into the profile.
			continue
		}
		f.Seg.prepareRecovery(cfg.AnchorLen)
		r.keys[si], r.index[si] = f.Seg.keys, f.Seg.anchors
		tokens += len(f.Seg.Tokens)
		if first, last := f.Seg.tscSpan(); len(f.Seg.Tokens) > 1 && last > first {
			// Sum only the spans the thread was actually captured in, so
			// the rate is not diluted by idle or lost periods.
			activeSpan += last - first
		}
	}
	if activeSpan > 0 && tokens > 0 {
		r.tokenRate = float64(tokens) / float64(activeSpan)
	} else {
		r.tokenRate = 0.1
	}
	return r
}

// prepareRecovery fills the segment's recovery caches for anchor length
// x: the tier caches, every token's MatchKey and its anchor index. The
// index is a counting sort of the anchors' end positions by the low bits
// of their mixed hash, rolled along the keys twice, once to count and
// once to place (rolling again costs less than keeping the hashes). Its
// bucket count is the power of two no smaller than a quarter of the
// anchor count: recovery makes a few hundred lookups per thread, so a
// bucket's mates cost it less than a larger array costs every prep. A
// session prepares each segment as it closes, on whichever worker is
// free; NewRecoverer prepares the rest.
func (s *Segment) prepareRecovery(x int) {
	s.ensureAbs()
	if s.keys != nil && s.anchorX == x {
		return
	}
	first := max(x-1, 0) // the index the first anchor ends at
	out := uint64(1)     // a key's weight as it leaves the window
	for range x {
		out *= anchorPoly
	}
	keys := make([]uint64, len(s.Tokens))
	n := max(len(s.Tokens)-first, 0)
	nb := 1
	for nb*4 < n {
		nb <<= 1
	}
	mask := uint64(nb - 1)
	ix := anchorIndex{start: make([]int32, nb+1), pos: make([]int32, n)}
	// Count bucket b into start[b+2] and sum the counts, so start[b+1] is
	// bucket b's first slot; placing advances it to bucket b's end, which
	// is bucket b+1's start.
	h := uint64(0)
	for i := range s.Tokens {
		keys[i] = s.Tokens[i].MatchKey()
		h = rollAnchor(h, keys, i, x, out)
		if i >= first {
			if b := int(mixAnchor(h) & mask); b+2 <= nb {
				ix.start[b+2]++
			}
		}
	}
	for b := 2; b <= nb; b++ {
		ix.start[b] += ix.start[b-1]
	}
	h = 0
	for i := range keys {
		h = rollAnchor(h, keys, i, x, out)
		if i >= first {
			b := mixAnchor(h)&mask + 1
			ix.pos[ix.start[b]] = int32(i + 1)
			ix.start[b]++
		}
	}
	s.keys, s.anchors, s.anchorX = keys, ix, x
}

// appendKeys appends the MatchKey of every token in toks to dst.
func appendKeys(dst []uint64, toks []Token) []uint64 {
	for i := range toks {
		dst = append(dst, toks[i].MatchKey())
	}
	return dst
}

// anchorPoly is the base of the anchor hash: a window's raw hash is the
// polynomial of its keys, so the index build rolls it along a flow at
// O(1) per position instead of rehashing every window.
const anchorPoly = 0x9e3779b97f4a7c15

// anchorHash computes the hash of the window of x keys ending at index i.
func anchorHash(keys []uint64, i, x int) uint64 {
	if i+1 < x {
		return 0
	}
	h := uint64(0)
	for j := i + 1 - x; j <= i; j++ {
		h = h*anchorPoly + keys[j]
	}
	return mixAnchor(h)
}

// rollAnchor moves raw window hash h from the window ending at i-1 to the
// one ending at i; out is anchorPoly^x.
func rollAnchor(h uint64, keys []uint64, i, x int, out uint64) uint64 {
	h = h*anchorPoly + keys[i]
	if i >= x {
		h -= keys[i-x] * out
	}
	return h
}

// mixAnchor finishes a raw window hash so that its low bits, which pick
// the bucket, depend on every key.
func mixAnchor(h uint64) uint64 {
	h ^= h >> 32
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>29
}

// suffixKeys compares keys backwards and returns the common-suffix length.
// a ends at ai (exclusive), b ends at bi (exclusive).
func suffixKeys(a []uint64, ai int, b []uint64, bi int) int {
	n := 0
	for ai-n > 0 && bi-n > 0 && a[ai-n-1] == b[bi-n-1] {
		n++
	}
	return n
}

// suffixAbs compares tier-l abstracted sequences backwards: ka/kb are
// the segments' keys, ia/ib the exclusive abstract end positions.
func suffixAbs(sa *Segment, ka []uint64, ia int32, sb *Segment, kb []uint64, ib int32, l int) int {
	aa := sa.Abstraction(l)
	ab := sb.Abstraction(l)
	n := int32(0)
	for ia-n > 0 && ib-n > 0 && ka[aa[ia-n-1]] == kb[ab[ib-n-1]] {
		n++
	}
	return int(n)
}

// candidate is one potential CS with its tiered match lengths.
type candidate struct {
	seg           int32
	pos           int32
	ml1, ml2, ml3 int
}

// searchCS is Algorithm 4: rank the anchor-matching candidates by common
// suffix with the IS, comparing tier-1 first, then tier-2, then concrete,
// skipping candidates that a higher tier already rules out (Theorem 5.5).
// It returns the TopN candidates, best first, plus diagnostics.
func (r *Recoverer) searchCS(isIdx int) ([]candidate, int, int) {
	if f := r.flows[isIdx]; f == nil || f.Quarantined {
		return nil, 0, 0 // no trustworthy anchor to search from
	}
	is, isK := r.flows[isIdx].Seg, r.keys[isIdx]
	n := len(isK)
	if n < r.cfg.AnchorLen {
		return nil, 0, 0
	}
	h := anchorHash(isK, n-1, r.cfg.AnchorLen)
	var cands []candidate
	tried, pruned := 0, 0
	m1, m2, m3 := 0, 0, 0
	r.visit(h, func(ap anchorPos) {
		if int(ap.seg) == isIdx && int(ap.pos) == n {
			return // the IS's own tail
		}
		cs, csK := r.flows[ap.seg].Seg, r.keys[ap.seg]
		// Tier 3 (concrete), which also verifies the anchor: the bucket
		// holds other anchors' positions too.
		ml3 := suffixKeys(isK, n, csK, int(ap.pos))
		if ml3 < r.cfg.AnchorLen {
			return
		}
		tried++
		// Tier 1 (call structure).
		ml1 := suffixAbs(is, isK, is.AbsPrefix(1, n), cs, csK, cs.AbsPrefix(1, int(ap.pos)), 1)
		if ml1 < m1 {
			pruned++
			return
		}
		// Tier 2 (control structure).
		ml2 := suffixAbs(is, isK, is.AbsPrefix(2, n), cs, csK, cs.AbsPrefix(2, int(ap.pos)), 2)
		if ml2 < m2 {
			pruned++
			return
		}
		c := candidate{seg: ap.seg, pos: ap.pos, ml1: ml1, ml2: ml2, ml3: ml3}
		cands = append(cands, c)
		if ml3 >= m3 {
			m1, m2, m3 = ml1, ml2, ml3
		}
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ml3 != cands[j].ml3 {
			return cands[i].ml3 > cands[j].ml3
		}
		if cands[i].ml2 != cands[j].ml2 {
			return cands[i].ml2 > cands[j].ml2
		}
		if cands[i].ml1 != cands[j].ml1 {
			return cands[i].ml1 > cands[j].ml1
		}
		if cands[i].seg != cands[j].seg {
			return cands[i].seg < cands[j].seg
		}
		return cands[i].pos < cands[j].pos
	})
	if len(cands) > r.cfg.TopN {
		cands = cands[:r.cfg.TopN]
	}
	return cands, tried, pruned
}

// searchCSNaive is Algorithm 3: enumerate anchor-matching candidates and
// pick the one with the longest concrete common suffix, with no tier
// pruning. Used by the ablation benchmarks.
func (r *Recoverer) searchCSNaive(isIdx int) (candidate, bool) {
	if f := r.flows[isIdx]; f == nil || f.Quarantined {
		return candidate{}, false
	}
	isK := r.keys[isIdx]
	n := len(isK)
	if n < r.cfg.AnchorLen {
		return candidate{}, false
	}
	anchor := isK[n-r.cfg.AnchorLen:]
	best := candidate{ml3: -1}
	found := false
	for si, keys := range r.keys {
		if keys == nil {
			continue // nil or quarantined
		}
		for p := r.cfg.AnchorLen; p <= len(keys); p++ {
			if si == isIdx && p == n {
				continue
			}
			if !sameKeys(keys[p-r.cfg.AnchorLen:p], anchor) {
				continue
			}
			ml3 := suffixKeys(isK, n, keys, p)
			if ml3 > best.ml3 {
				best = candidate{seg: int32(si), pos: int32(p), ml3: ml3}
				found = true
			}
		}
	}
	return best, found
}

// SearchTiered runs the Algorithm 4 candidate search (anchor index plus
// tier-1/tier-2/concrete suffix comparison with Theorem 5.5 pruning) for
// the hole after segment isIdx and reports the best concrete suffix length,
// the candidates examined and the candidates pruned at an abstract tier.
// Exposed for the ablation benchmarks.
func (r *Recoverer) SearchTiered(isIdx int) (best, tried, pruned int) {
	cands, tried, pruned := r.searchCS(isIdx)
	if len(cands) > 0 {
		best = cands[0].ml3
	}
	return best, tried, pruned
}

// SearchNaive runs the Algorithm 3 search (anchor scan with concrete-only
// comparison, no abstraction pruning) and reports the best concrete suffix
// length. Exposed for the ablation benchmarks.
func (r *Recoverer) SearchNaive(isIdx int) (best int, found bool) {
	c, ok := r.searchCSNaive(isIdx)
	return c.ml3, ok
}

// RecoverHole fills the hole after segment isIdx (before segment isIdx+1)
// per §5: try the ranked CSes, reading the winning CS's suffix until the
// post-hole instructions are reached or the timestamp budget runs out, then
// fall back to an ICFG walk.
func (r *Recoverer) RecoverHole(isIdx int) Fill {
	if r.cfg.Disable {
		return Fill{}
	}
	nextFlow := r.flows[isIdx+1]
	if nextFlow == nil || r.flows[isIdx] == nil {
		return Fill{}
	}
	gap := nextFlow.Seg.GapBefore
	// The timestamps around the hole tell us roughly how much execution
	// is missing (paper §5, Recovery): the splice must read about d's
	// worth of instructions from the CS — not accept the first trivial
	// match, which in repetitive code would appear immediately.
	budget := r.cfg.MaxFillTokens
	expected := 0
	if gap != nil && gap.Duration() > 0 {
		expected = int(float64(gap.Duration()) * r.tokenRate)
		b := int(float64(expected) * r.cfg.TimeBudgetSlack)
		if b < r.cfg.ConfirmLen*4 {
			b = r.cfg.ConfirmLen * 4
		}
		if b < budget {
			budget = b
		}
		if expected > r.cfg.MaxFillTokens {
			expected = r.cfg.MaxFillTokens
		}
	}
	kMin := expected * 7 / 10

	cands, tried, pruned := r.searchCS(isIdx)
	fill := Fill{CandidatesTried: tried, TierPrunes: pruned}
	// A quarantined flow has no keys: untrusted tokens cannot confirm a
	// splice.
	post := r.keys[isIdx+1]
	// Candidates are scored by plan alone; only the kept one's steps are
	// built.
	var bestPartial fillPlan
	for i := range cands {
		p := r.chainFill(&cands[i], kMin, budget, post)
		if p.connected {
			fill.Method = FillCS
			fill.Steps = r.planSteps(&p, gap)
			return fill
		}
		if p.steps > bestPartial.steps {
			bestPartial = p
		}
	}
	// No candidate reconnected within the budget. Keep the longest
	// splice when the hole is substantial, rather than dropping to a
	// blind walk.
	if expected > r.cfg.ConfirmLen*4 && bestPartial.steps >= r.cfg.ConfirmLen*4 {
		fill.Method = FillPartial
		fill.Steps = r.planSteps(&bestPartial, gap)
		return fill
	}
	// Fallback: walk the ICFG from the last projected node of the IS to
	// the first projected node after the hole.
	if steps, ok := r.fallbackWalk(isIdx, gap); ok {
		fill.Method = FillWalk
		fill.Steps = steps
	}
	return fill
}

const (
	// maxChainHops bounds the segments one chained fill splices from.
	maxChainHops = 8
	// chainWindow caps the context a re-anchor compares: continueFrom
	// ranks positions by their common suffix with the splice, up to this
	// many tokens, so the splice's last chainWindow tokens decide a hop.
	chainWindow = 64
)

// fillHop is one stretch of a chained fill: tokens [from, to) of flow seg.
type fillHop struct {
	seg      int32
	from, to int32
}

// fillPlan is a chained fill before any step is built: its hops, how many
// steps they project (tokens with a node) and whether the splice
// reconnected with the post-hole tokens.
type fillPlan struct {
	hops      [maxChainHops]fillHop
	nhops     int
	steps     int
	connected bool
}

// chainFill plans the splice of the CS continuation starting at candidate
// c; when the CS runs out before the hole is covered, it re-anchors from
// the splice's own tail and continues from the next best matching position
// (holes can be longer than any single complete segment).
func (r *Recoverer) chainFill(c *candidate, kMin, budget int, post []uint64) fillPlan {
	var p fillPlan
	y := min(r.cfg.ConfirmLen, len(post))
	if y == 0 {
		return p
	}
	post = post[:y]
	var buf [chainWindow]uint64
	window := buf[:]
	if r.cfg.AnchorLen > chainWindow {
		window = make([]uint64, r.cfg.AnchorLen) // the anchor itself must fit
	}
	consumed := 0
	seg, pos := c.seg, int(c.pos)
	for {
		csFlow := r.flows[seg]
		cst := r.keys[seg]
		i, done := pos, false
		for ; i < len(cst); i++ {
			// Does the continuation here line up with the post-hole
			// tokens (and have we consumed enough of the budget for the
			// hole's duration)?
			if consumed >= kMin && i+y <= len(cst) && sameKeys(cst[i:i+y], post) {
				p.connected, done = true, true
				break
			}
			if consumed >= budget {
				done = true
				break
			}
			consumed++
			if csFlow.Nodes[i] != cfg.NoNode {
				p.steps++
			}
		}
		p.hops[p.nhops] = fillHop{seg: seg, from: int32(pos), to: int32(i)}
		p.nhops++
		if done || p.nhops == maxChainHops {
			return p
		}
		np, ok := r.continueFrom(r.spliceTail(&p, window))
		if !ok {
			return p
		}
		seg, pos = np.seg, int(np.pos)
	}
}

func sameKeys(a, b []uint64) bool {
	for j := range a {
		if a[j] != b[j] {
			return false
		}
	}
	return true
}

// spliceTail copies the keys of the last len(buf) tokens of p's splice
// (all of them when the splice is shorter) into buf and returns them.
func (r *Recoverer) spliceTail(p *fillPlan, buf []uint64) []uint64 {
	k := len(buf)
	for h := p.nhops - 1; h >= 0 && k > 0; h-- {
		hop := p.hops[h]
		src := r.keys[hop.seg][hop.from:hop.to]
		n := min(k, len(src))
		k -= n
		copy(buf[k:], src[len(src)-n:])
	}
	return buf[k:]
}

// planSteps builds the steps of plan p, timestamps interpolated across
// the hole.
func (r *Recoverer) planSteps(p *fillPlan, gap *GapInfo) []Step {
	if p.steps == 0 {
		return nil
	}
	steps := make([]Step, 0, p.steps)
	for _, hop := range p.hops[:p.nhops] {
		nodes := r.flows[hop.seg].Nodes
		for i := hop.from; i < hop.to; i++ {
			if n := nodes[i]; n != cfg.NoNode {
				mid, pc := r.m.G.Location(n)
				steps = append(steps, Step{Method: mid, PC: pc, TSC: fillTSC(gap, len(steps), p.steps), Recovered: true})
			}
		}
	}
	return steps
}

// continueFrom locates the position whose context best matches the tail of
// the splice so far (the chained re-anchor), given the tail's keys.
// Matches count up to chainWindow tokens, so tail need hold no more than
// that, or than the anchor when it is longer.
func (r *Recoverer) continueFrom(tail []uint64) (anchorPos, bool) {
	x := r.cfg.AnchorLen
	if len(tail) < x {
		return anchorPos{}, false
	}
	h := anchorHash(tail, len(tail)-1, x)
	var best anchorPos
	bestLen := -1
	r.visit(h, func(ap anchorPos) {
		csK := r.keys[ap.seg]
		n := suffixKeys(tail, len(tail), csK, int(ap.pos))
		if n < x {
			return // another anchor sharing the bucket
		}
		if n > chainWindow {
			n = chainWindow
		}
		// Prefer positions with actual continuation left.
		if int(ap.pos) >= len(csK) {
			return
		}
		if n > bestLen {
			bestLen = n
			best = ap
		}
	})
	return best, bestLen >= x
}

// fillTSC interpolates timestamps across the hole.
func fillTSC(gap *GapInfo, i, k int) uint64 {
	if gap == nil || k == 0 {
		return 0
	}
	return gap.Start + gap.Duration()*uint64(i)/uint64(k)
}

// fallbackWalk finds any ICFG path connecting the pre- and post-hole
// instructions (bounded BFS); the paper returns a random connecting path
// when no CS fits.
func (r *Recoverer) fallbackWalk(isIdx int, gap *GapInfo) ([]Step, bool) {
	from := lastNode(r.flows[isIdx])
	to := firstNode(r.flows[isIdx+1])
	if from == cfg.NoNode || to == cfg.NoNode {
		return nil, false
	}
	// BFS over successors, treating every edge as viable (directions
	// unknown inside the hole).
	type qe struct {
		n    cfg.NodeID
		prev int32
	}
	visited := map[cfg.NodeID]bool{from: true}
	queue := []qe{{n: from, prev: -1}}
	foundAt := -1
	for qi := 0; qi < len(queue) && qi < r.cfg.FallbackWalkMax*16; qi++ {
		cur := queue[qi]
		if cur.n == to && qi != 0 {
			foundAt = qi
			break
		}
		depth := 0
		for p := cur.prev; p >= 0; p = queue[p].prev {
			depth++
		}
		if depth >= r.cfg.FallbackWalkMax {
			continue
		}
		for _, e := range r.m.G.Succs[cur.n] {
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, qe{n: e.To, prev: int32(qi)})
			}
		}
	}
	if foundAt < 0 {
		return nil, false
	}
	var rev []cfg.NodeID
	for p := int32(foundAt); p >= 0; p = queue[p].prev {
		rev = append(rev, queue[p].n)
	}
	// rev includes `from` (already emitted) and `to` (will be emitted by
	// the next segment); keep the interior.
	if len(rev) <= 2 {
		return nil, true
	}
	k := len(rev) - 2
	steps := make([]Step, 0, k)
	for i := len(rev) - 2; i >= 1; i-- {
		mid, pc := r.m.G.Location(rev[i])
		steps = append(steps, Step{Method: mid, PC: pc, TSC: fillTSC(gap, len(steps), k), Recovered: true})
	}
	return steps, true
}

func lastNode(f *SegmentFlow) cfg.NodeID {
	for i := len(f.Nodes) - 1; i >= 0; i-- {
		if f.Nodes[i] != cfg.NoNode {
			return f.Nodes[i]
		}
	}
	return cfg.NoNode
}

func firstNode(f *SegmentFlow) cfg.NodeID {
	for i := 0; i < len(f.Nodes); i++ {
		if f.Nodes[i] != cfg.NoNode {
			return f.Nodes[i]
		}
	}
	return cfg.NoNode
}
