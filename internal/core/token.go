// Package core implements JPortal's offline analysis — the paper's primary
// contribution: decoding hardware traces into bytecode instruction
// sequences (§3), projecting those sequences onto the program's ICFG by
// NFA-based matching with abstraction-guided search (§4, Definitions
// 4.1-4.3, Algorithms 1-2), and recovering the holes that data loss leaves
// between trace segments with the three-tier abstraction hierarchy and
// pruned candidate search (§5, Definitions 5.1-5.2, Lemmas 5.3-5.4,
// Theorem 5.5, Algorithms 3-4).
package core

import (
	"fmt"

	"jportal/internal/bytecode"
)

// Token is one bytecode-level trace event produced by decoding. Tokens from
// interpreted execution carry only the opcode (plus the branch direction
// for conditionals) — *which* program instruction executed is exactly what
// reconstruction must determine. Tokens decoded from JITed code carry their
// precise location from the debug metadata. A token's timestamp is not
// stored in it but in its segment's Clock.
type Token struct {
	// Method/PC locate the instruction when known (JIT debug info);
	// Method is bytecode.NoMethod for interpreter tokens.
	Method bytecode.MethodID
	PC     int32
	Op     bytecode.Opcode
	// HasDir/Taken give the conditional-branch outcome.
	HasDir bool
	Taken  bool
	// Approx marks tokens from approximate debug records.
	Approx bool
}

// Located reports whether the token carries a precise location.
func (t *Token) Located() bool { return t.Method != bytecode.NoMethod }

// Tier reports the highest abstraction tier the token survives:
// 1 for call-structure tokens, 2 for other control tokens, 3 otherwise
// (Definition 5.2: tier-l abstraction keeps tokens with Tier() <= l).
func (t *Token) Tier() int {
	switch {
	case t.Op.IsCallStructure():
		return 1
	case t.Op.IsControl():
		return 2
	}
	return 3
}

// MatchKey is a comparable summary used by recovery matching: located
// tokens compare by position, interpreter tokens by opcode and direction.
func (t *Token) MatchKey() uint64 {
	if t.Located() {
		return 1<<63 | uint64(uint32(t.Method))<<24 | uint64(uint32(t.PC))&0xffffff
	}
	k := uint64(t.Op)
	if t.HasDir {
		k |= 1 << 9
		if t.Taken {
			k |= 1 << 10
		}
	}
	return k
}

func (t Token) String() string {
	dir := ""
	if t.HasDir {
		if t.Taken {
			dir = " 1"
		} else {
			dir = " 0"
		}
	}
	if t.Located() {
		return fmt.Sprintf("m%d@%d:%s%s", t.Method, t.PC, t.Op, dir)
	}
	return fmt.Sprintf("%s%s", t.Op, dir)
}

// GapInfo describes the discontinuity preceding a segment.
type GapInfo struct {
	// LostBytes is the dropped trace volume (0 for pure desyncs).
	LostBytes uint64
	// Start and End bound the loss episode in time.
	Start, End uint64
	// Desync marks decoder desynchronisation rather than buffer loss.
	Desync bool
}

// Duration returns the loss episode length in cycles.
func (g *GapInfo) Duration() uint64 {
	if g.End > g.Start {
		return g.End - g.Start
	}
	return 0
}

// TSCMark is one entry of a segment's run-length clock: the tokens from
// index At up to the next mark's At (or the segment's end) carry TSC.
type TSCMark struct {
	At  int32
	TSC uint64
}

// Segment is a maximal run of decoded tokens with no internal data loss
// (the paper's ω, §4). GapBefore is nil only for a thread's first segment.
type Segment struct {
	Tokens []Token
	// Clock holds the tokens' best-effort timestamps, run-length encoded:
	// PT timestamps arrive as sparse timing packets, so a run of hundreds
	// or thousands of tokens shares one TSC. The tokenizer writes it in
	// canonical form — first At 0, At strictly increasing, adjacent TSCs
	// different — and checkClock validates what a checkpoint restores. A
	// nil clock reads as TSC 0 for every token.
	Clock     []TSCMark
	GapBefore *GapInfo

	// abs1/abs2 are the tier-1/tier-2 abstractions: indices into Tokens
	// of the surviving tokens (computed lazily; see Abstraction).
	abs1, abs2 []int32
	// absIdx1/absIdx2 give, for every concrete index, how many
	// tier-1/tier-2 tokens occur strictly before it (prefix counts used
	// by suffix comparisons at higher tiers).
	absIdx1, absIdx2 []int32

	// keys and anchors are the recovery caches (prepareRecovery): every
	// token's MatchKey, and the index of every anchorX-key anchor window's
	// end position by its hash.
	keys    []uint64
	anchors anchorIndex
	anchorX int
}

// checkClock reports whether the segment's clock covers its tokens: a
// segment with tokens needs a clock whose first mark is at 0, whose At
// values strictly increase, and whose every At indexes a token.
func (s *Segment) checkClock() error {
	n := len(s.Tokens)
	if n == 0 {
		return nil
	}
	if len(s.Clock) == 0 || s.Clock[0].At != 0 {
		return fmt.Errorf("core: %d tokens, clock does not start at token 0", n)
	}
	for k := 1; k < len(s.Clock); k++ {
		if at := s.Clock[k].At; at <= s.Clock[k-1].At || int(at) >= n {
			return fmt.Errorf("core: clock mark %d at %d (previous %d, %d tokens)", k, at, s.Clock[k-1].At, n)
		}
	}
	return nil
}

// tscSpan returns the timestamps of the segment's first and last tokens.
func (s *Segment) tscSpan() (first, last uint64) {
	if c := s.Clock; len(c) > 0 {
		return c[0].TSC, c[len(c)-1].TSC
	}
	return 0, 0
}

// clockWalk reads a segment's clock in token order.
type clockWalk struct {
	clock []TSCMark
	next  int
	tsc   uint64
}

// clockWalk starts a walk of the segment's clock at token 0.
func (s *Segment) clockWalk() clockWalk { return clockWalk{clock: s.Clock} }

// tscAt returns the timestamp of token i. Successive calls must not
// decrease i; they may skip tokens.
func (w *clockWalk) tscAt(i int) uint64 {
	for w.next < len(w.clock) && int(w.clock[w.next].At) <= i {
		w.tsc = w.clock[w.next].TSC
		w.next++
	}
	return w.tsc
}

// Abstraction returns the indices of tokens surviving tier-l abstraction
// (Definition 5.2), computing and caching them on first use.
func (s *Segment) Abstraction(l int) []int32 {
	s.ensureAbs()
	switch l {
	case 1:
		return s.abs1
	case 2:
		return s.abs2
	}
	panic("core: Abstraction tier must be 1 or 2")
}

// AbsPrefix returns, for concrete index i, the number of tier-l tokens at
// indices < i.
func (s *Segment) AbsPrefix(l int, i int) int32 {
	s.ensureAbs()
	switch l {
	case 1:
		return s.absIdx1[i]
	case 2:
		return s.absIdx2[i]
	}
	panic("core: AbsPrefix tier must be 1 or 2")
}

// ensureAbs fills the tier caches: one pass counts the prefix arrays,
// which then size abs1/abs2 exactly. Both passes are branch-free: the
// counts advance by tierStep, and every token writes its abstraction
// slot, so the last write to slot k is the k-th surviving token's (the
// tokens after the last one write a spare slot past the end).
func (s *Segment) ensureAbs() {
	if s.absIdx1 != nil {
		return
	}
	n := len(s.Tokens)
	idx1 := make([]int32, n+1)
	idx2 := make([]int32, n+1)
	var c1, c2 int32
	for i := range s.Tokens {
		idx1[i], idx2[i] = c1, c2
		st := &tierStep[s.Tokens[i].Op]
		c1 += st[0]
		c2 += st[1]
	}
	idx1[n], idx2[n] = c1, c2
	abs1 := make([]int32, c1+1)
	abs2 := make([]int32, c2+1)
	for i := range n {
		abs1[idx1[i]] = int32(i)
		abs2[idx2[i]] = int32(i)
	}
	s.abs1, s.abs2 = abs1[:c1:c1], abs2[:c2:c2]
	s.absIdx1, s.absIdx2 = idx1, idx2
}

// tierStep[op] is how much a token of op advances the tier-1 and tier-2
// counts: a token survives every tier from its Tier() up.
var tierStep = func() (steps [256][2]int32) {
	for op := range steps {
		t := Token{Op: bytecode.Opcode(op)}
		switch t.Tier() {
		case 1:
			steps[op] = [2]int32{1, 1}
		case 2:
			steps[op] = [2]int32{0, 1}
		}
	}
	return steps
}()
