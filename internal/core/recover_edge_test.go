package core

// Edge cases of §5 recovery under degraded input: holes at the thread
// boundary, holes bigger than any donor material, consecutive holes, and
// recovery when every candidate segment has been quarantined. These are the
// shapes a chaos run produces; none may panic and none may splice
// quarantined tokens into the profile.

import (
	"testing"
)

// TestRecoverHoleAtThreadStart: the first flow carries a GapBefore (the
// thread was created before tracing caught up). That gap has no preceding
// segment, so it is never an indexable hole — but the recoverer built over
// such flows must still index them and fill the interior holes normally.
func TestRecoverHoleAtThreadStart(t *testing.T) {
	_, m := fig2Matcher(t)
	iter := len(fig2ElseTrace())
	head := mkFlow(m, repTrace(3, 1000), &GapInfo{Start: 0, End: 1000, LostBytes: 50})
	gapDur := uint64(4 * iter * 10)
	tail := mkFlow(m, repTrace(3, 1000+uint64(3*iter*10)+gapDur), &GapInfo{
		Start: 1000 + uint64(3*iter*10), End: 1000 + uint64(3*iter*10) + gapDur, LostBytes: 200,
	})
	cs := mkFlow(m, repTrace(10, 100_000), &GapInfo{Desync: true})
	r := NewRecoverer(m, []*SegmentFlow{head, tail, cs}, DefaultRecoveryConfig())
	fill := r.RecoverHole(0)
	if fill.Method == FillNone {
		t.Fatalf("interior hole after a leading gap not filled (tried %d)", fill.CandidatesTried)
	}
}

// TestRecoverHoleSpanningEntireSegmentBudget: the gap's implied execution
// dwarfs all donor material. The fill must stay bounded by MaxFillTokens
// and return (partial splice or walk), not spin or panic.
func TestRecoverHoleSpanningEntireSegmentBudget(t *testing.T) {
	_, m := fig2Matcher(t)
	iter := len(fig2ElseTrace())
	pre := mkFlow(m, repTrace(2, 0), nil)
	// A gap claiming ~10000 iterations of lost execution.
	gapDur := uint64(10_000 * iter * 10)
	post := mkFlow(m, repTrace(2, uint64(2*iter*10)+gapDur), &GapInfo{
		Start: uint64(2 * iter * 10), End: uint64(2*iter*10) + gapDur, LostBytes: 1 << 20,
	})
	cs := mkFlow(m, repTrace(4, 100_000), &GapInfo{Desync: true})
	cfg := DefaultRecoveryConfig()
	r := NewRecoverer(m, []*SegmentFlow{pre, post, cs}, cfg)
	fill := r.RecoverHole(0)
	if len(fill.Steps) > cfg.MaxFillTokens {
		t.Fatalf("fill of %d steps exceeds MaxFillTokens %d", len(fill.Steps), cfg.MaxFillTokens)
	}
}

// TestRecoverBackToBackHoles: every interior boundary is a hole. Each hole
// is recovered independently; both must return without interfering.
func TestRecoverBackToBackHoles(t *testing.T) {
	_, m := fig2Matcher(t)
	iter := len(fig2ElseTrace())
	gapDur := uint64(2 * iter * 10)
	t0 := uint64(3 * iter * 10)
	a := mkFlow(m, repTrace(3, 0), nil)
	b := mkFlow(m, repTrace(3, t0+gapDur), &GapInfo{Start: t0, End: t0 + gapDur, LostBytes: 100})
	t1 := t0 + gapDur + uint64(3*iter*10)
	c := mkFlow(m, repTrace(3, t1+gapDur), &GapInfo{Start: t1, End: t1 + gapDur, LostBytes: 100})
	cs := mkFlow(m, repTrace(10, 1_000_000), &GapInfo{Desync: true})
	r := NewRecoverer(m, []*SegmentFlow{a, b, c, cs}, DefaultRecoveryConfig())
	f0 := r.RecoverHole(0)
	f1 := r.RecoverHole(1)
	if f0.Method == FillNone || f1.Method == FillNone {
		t.Fatalf("back-to-back holes: fill0=%v fill1=%v", f0.Method, f1.Method)
	}
}

// TestRecoverAllCandidatesQuarantined: a quarantined flow must behave
// exactly as if it were absent — it contributes no anchor candidates, so
// recovery with the quarantined donor present equals recovery without it.
func TestRecoverAllCandidatesQuarantined(t *testing.T) {
	_, m := fig2Matcher(t)
	iter := len(fig2ElseTrace())
	pre := mkFlow(m, repTrace(3, 0), nil)
	gapDur := uint64(4 * iter * 10)
	post := mkFlow(m, repTrace(3, uint64(3*iter*10)+gapDur), &GapInfo{
		Start: uint64(3 * iter * 10), End: uint64(3*iter*10) + gapDur, LostBytes: 300,
	})
	qseg := repTrace(12, 100_000)
	qseg.GapBefore = &GapInfo{Desync: true}
	q := quarantinedFlow(qseg, m.G)

	withQ := NewRecoverer(m, []*SegmentFlow{pre, post, q}, DefaultRecoveryConfig()).RecoverHole(0)
	without := NewRecoverer(m, []*SegmentFlow{pre, post}, DefaultRecoveryConfig()).RecoverHole(0)
	if withQ.Method != without.Method || len(withQ.Steps) != len(without.Steps) {
		t.Fatalf("quarantined donor changed the fill: %v/%d steps vs %v/%d",
			withQ.Method, len(withQ.Steps), without.Method, len(without.Steps))
	}
	for _, s := range withQ.Steps {
		if !s.Recovered {
			t.Fatal("fill step not marked Recovered")
		}
	}

	// A hole whose post-segment is itself quarantined: no confirmation
	// tokens exist, so a splice can never be confirmed, and indexing the
	// quarantined flow as IS must return no candidates.
	r2 := NewRecoverer(m, []*SegmentFlow{pre, q}, DefaultRecoveryConfig())
	if fill := r2.RecoverHole(0); fill.Method == FillCS {
		t.Fatalf("splice fill %v confirmed against quarantined post tokens", fill.Method)
	}
	if cands, _, _ := r2.searchCS(1); cands != nil {
		t.Fatal("searchCS over a quarantined IS returned candidates")
	}
}

// TestRecoverNilFlowSlots: crash containment can leave nil flows; every
// recovery entry point must treat them as absent.
func TestRecoverNilFlowSlots(t *testing.T) {
	_, m := fig2Matcher(t)
	pre := mkFlow(m, repTrace(2, 0), nil)
	post := mkFlow(m, repTrace(2, 1000), &GapInfo{Start: 500, End: 1000, LostBytes: 100})
	r := NewRecoverer(m, []*SegmentFlow{pre, nil, post}, DefaultRecoveryConfig())
	if fill := r.RecoverHole(0); fill.Method != FillNone {
		t.Fatalf("hole into a nil flow filled: %v", fill.Method)
	}
	if fill := r.RecoverHole(1); fill.Method != FillNone {
		t.Fatalf("hole out of a nil flow filled: %v", fill.Method)
	}
}
