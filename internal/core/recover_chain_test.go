package core

// Pins of the §5 chained fill: which position a re-anchor continues from,
// and the exact steps of a fill stitched from several complete segments.

import (
	"hash/fnv"
	"testing"

	"jportal/internal/bytecode"
)

// fig2Iter returns one interpreter-token iteration of Test.fun: the else
// arm (ifeq taken) or the then arm (ifeq falls through, goto the join),
// leaving by the ifne-taken exit (return 0) or the fall-through one
// (return 1).
func fig2Iter(elseArm, ret0 bool) []Token {
	toks := []Token{tok(bytecode.ILOAD), dtok(bytecode.IFEQ, elseArm)}
	if elseArm {
		toks = append(toks, tok(bytecode.ILOAD), tok(bytecode.ICONST), tok(bytecode.ISUB), tok(bytecode.ISTORE))
	} else {
		toks = append(toks, tok(bytecode.ILOAD), tok(bytecode.ICONST), tok(bytecode.IADD), tok(bytecode.ISTORE), tok(bytecode.GOTO))
	}
	return append(toks, tok(bytecode.ILOAD), tok(bytecode.ICONST), tok(bytecode.IREM),
		dtok(bytecode.IFNE, ret0), tok(bytecode.ICONST), tok(bytecode.IRETURN))
}

// iterSeq concatenates iterations, stamping one token every 10 cycles
// from start.
func iterSeq(start uint64, iters ...[]Token) *Segment {
	var out []Token
	for _, it := range iters {
		out = append(out, it...)
	}
	return stampEvery(out, start, 10)
}

func stepsHash(steps []Step) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for _, s := range steps {
		for i := 0; i < 4; i++ {
			b[i] = byte(uint32(s.Method) >> (8 * i))
			b[4+i] = byte(uint32(s.PC) >> (8 * i))
		}
		for i := 0; i < 8; i++ {
			b[8+i] = byte(s.TSC >> (8 * i))
		}
		b[16] = 0
		if s.Recovered {
			b[16] = 1
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestChainReanchorUsesWindowTail: at the re-anchor, every iteration
// boundary shares the splice's last AnchorLen keys, so only the longer
// context tells them apart. The first boundary in index order (after the
// IS's leading then-iteration) matches the splice's tail for 6 tokens; a
// later one (in the last segment, after "then, else") matches all 25. The
// fill must continue from the later one. A re-anchor that kept only the
// last AnchorLen tokens of the splice would score both 4 and take the
// first, splicing return-1 iterations (pcs 15, 16) into the fill.
func TestChainReanchorUsesWindowTail(t *testing.T) {
	_, m := fig2Matcher(t)
	then0, else0, else1 := fig2Iter(false, true), fig2Iter(true, true), fig2Iter(true, false)
	// IS: then, else/return-1 twice. Its only full-length match is in
	// segment 2, whose continuation (then, else) ends the segment: the
	// first hop consumes 25 tokens without reaching the expected 60.
	pre := mkFlow(m, iterSeq(0, then0, else1, else1), nil)
	post := mkFlow(m, iterSeq(1000, else0, else0, else0), &GapInfo{Start: 380, End: 970, LostBytes: 300})
	csA := mkFlow(m, iterSeq(10_000, then0, else1, else1, then0, else0), &GapInfo{Desync: true})
	csB := mkFlow(m, iterSeq(20_000, then0, else0, else0, else0, else0), &GapInfo{Desync: true})
	r := NewRecoverer(m, []*SegmentFlow{pre, post, csA, csB}, DefaultRecoveryConfig())
	fill := r.RecoverHole(0)
	if fill.Method != FillCS {
		t.Fatalf("fill method %v, want FillCS", fill.Method)
	}
	// then, else from segment 2; else, else from segment 3 after the
	// re-anchor; then the post-hole else reconnects.
	var want []int32
	for _, it := range [][]int32{
		{0, 1, 2, 3, 4, 5, 6, 11, 12, 13, 14, 17, 18},
		{0, 1, 7, 8, 9, 10, 11, 12, 13, 14, 17, 18},
		{0, 1, 7, 8, 9, 10, 11, 12, 13, 14, 17, 18},
		{0, 1, 7, 8, 9, 10, 11, 12, 13, 14, 17, 18},
	} {
		want = append(want, it...)
	}
	if len(fill.Steps) != len(want) {
		t.Fatalf("fill has %d steps, want %d", len(fill.Steps), len(want))
	}
	for i, s := range fill.Steps {
		if s.PC != want[i] {
			t.Fatalf("step %d at pc %d, want %d", i, s.PC, want[i])
		}
	}
}

// TestChainFillMultiHop pins a fill stitched from at least three
// segments: the hole holds about ten iterations, no segment more than
// three, so a fill longer than two segments' tokens took three hops or
// more. Its step count and step hash pin every step of the fill: the
// order of its hops, their bounds and the interpolated timestamps.
func TestChainFillMultiHop(t *testing.T) {
	_, m := fig2Matcher(t)
	iter := len(fig2ElseTrace())
	pre := mkFlow(m, repTrace(3, 0), nil)
	gapDur := uint64(10 * iter * 10)
	post := mkFlow(m, repTrace(3, uint64(3*iter*10)+gapDur), &GapInfo{
		Start: uint64(3 * iter * 10), End: uint64(3*iter*10) + gapDur, LostBytes: 1200,
	})
	flows := []*SegmentFlow{pre, post}
	for i := 0; i < 3; i++ {
		flows = append(flows, mkFlow(m, repTrace(2, uint64(40_000+20_000*i)), &GapInfo{Desync: true}))
	}
	maxSeg := 0
	for _, f := range flows {
		maxSeg = max(maxSeg, len(f.Seg.Tokens))
	}
	fill := NewRecoverer(m, flows, DefaultRecoveryConfig()).RecoverHole(0)
	if fill.Method != FillCS {
		t.Fatalf("fill method %v, want FillCS", fill.Method)
	}
	if len(fill.Steps) <= 2*maxSeg {
		t.Fatalf("fill of %d steps fits in two hops of at most %d tokens", len(fill.Steps), maxSeg)
	}
	const wantSteps, wantHash = 96, 0x360df6ef8050de80
	if got := stepsHash(fill.Steps); len(fill.Steps) != wantSteps || got != wantHash {
		t.Errorf("fill: %d steps, hash %#x; want %d steps, hash %#x", len(fill.Steps), got, wantSteps, uint64(wantHash))
	}
}

// TestRecovererNoBoundaryBuildsNothing: a thread with one segment has no
// hole, and a disabled recoverer fills none. Neither indexes an anchor or
// forces a segment's abstraction tiers.
func TestRecovererNoBoundaryBuildsNothing(t *testing.T) {
	_, m := fig2Matcher(t)
	off := DefaultRecoveryConfig()
	off.Disable = true
	for _, tc := range []struct {
		name  string
		flows int
		cfg   RecoveryConfig
	}{
		{"one flow", 1, DefaultRecoveryConfig()},
		{"disabled", 3, off},
	} {
		var flows []*SegmentFlow
		for i := 0; i < tc.flows; i++ {
			flows = append(flows, mkFlow(m, repTrace(3, uint64(10_000*i)), nil))
		}
		r := NewRecoverer(m, flows, tc.cfg)
		if r.index != nil || r.keys != nil {
			t.Errorf("%s: anchor indexes %v, keys %v; want none", tc.name, r.index != nil, r.keys != nil)
		}
		for i, f := range flows {
			if f.Seg.absIdx1 != nil || f.Seg.anchors.start != nil {
				t.Errorf("%s: segment %d abstraction tiers or anchor index built", tc.name, i)
			}
		}
	}
}
