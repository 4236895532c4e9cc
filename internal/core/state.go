package core

import (
	"context"
	"fmt"
	"time"

	"jportal/internal/source"
)

// TokenizerState is the tokenizer's checkpointable lowering state: the
// open segment, the gap awaiting attachment, the clock, and the pending
// conditional dispatch. Only valid between Feed calls, after take() — the
// completed-segment list must be empty (harvested into the analyzer's
// backlog), which ThreadAnalyzer.Feed guarantees.
type TokenizerState struct {
	Stats       DecodeThreadStats
	Cur         *Segment
	PendingGap  *GapInfo
	TSC         uint64
	PendingCond int
}

// exportState deep-copies the tokenizer's state (the live tokenizer keeps
// appending to its open segment after the snapshot).
func (t *tokenizer) exportState() TokenizerState {
	if len(t.segs) != 0 {
		panic("core: tokenizer export with unharvested segments")
	}
	st := TokenizerState{
		Stats:       t.st,
		TSC:         t.tsc,
		PendingCond: t.pendingCond,
	}
	if len(t.cur.Tokens) > 0 || t.cur.GapBefore != nil {
		st.Cur = &Segment{
			Tokens:    append([]Token(nil), t.cur.Tokens...),
			Clock:     append([]TSCMark(nil), t.cur.Clock...),
			GapBefore: t.cur.GapBefore,
		}
	}
	if t.pendingGap != nil {
		g := *t.pendingGap
		st.PendingGap = &g
	}
	return st
}

// restoreState rebuilds the tokenizer from a checkpointed state. A nil Cur
// (gob's encoding of a pointer to a zero struct, or an export taken with
// an empty open segment) is normalised back to a fresh Segment.
func (t *tokenizer) restoreState(st TokenizerState) {
	t.st = st.Stats
	t.segs = nil
	t.dropLowered()
	// Adopt the checkpointed open segment into the token and clock
	// arenas: the restored tokens and marks are copied to the head of
	// fresh open spans so the appendTok invariants (cur.Tokens ==
	// slab[segStart:len(slab)], cur.Clock == marks[markStart:len(marks)])
	// hold again.
	t.segStart = len(t.slab)
	t.markStart = len(t.marks)
	t.cur = t.newSeg()
	t.curLocated = 0
	if st.Cur != nil {
		t.cur.GapBefore = st.Cur.GapBefore
		if n := len(st.Cur.Tokens); n > 0 {
			if len(t.slab)+n > cap(t.slab) {
				t.slab = refill(t.slab, t.segStart, n, tokenSlabSize)
				t.segStart = 0
			}
			t.slab = append(t.slab, st.Cur.Tokens...)
			t.cur.Tokens = t.slab[t.segStart:len(t.slab):len(t.slab)]
			for i := range t.cur.Tokens {
				if t.cur.Tokens[i].Located() {
					t.curLocated++
				}
			}
		}
		if n := len(st.Cur.Clock); n > 0 {
			if len(t.marks)+n > cap(t.marks) {
				t.marks = refill(t.marks, t.markStart, n, markSlabSize)
				t.markStart = 0
			}
			t.marks = append(t.marks, st.Cur.Clock...)
			t.cur.Clock = t.marks[t.markStart:len(t.marks):len(t.marks)]
		}
	}
	t.pendingGap = st.PendingGap
	t.tsc = st.TSC
	t.pendingCond = st.PendingCond
}

// ThreadAnalyzerState is one thread's checkpointable analysis state
// (DESIGN.md §11): decoder walking state, tokenizer lowering state, every
// segment closed so far, and the fault-harvest watermarks. Only valid at
// quiescence — between Session drains — and only before Finish. A
// segment's flow and recovery caches are derived state and are not
// checkpointed: a restored segment is analyzed again.
type ThreadAnalyzerState struct {
	Thread     int
	Decoder    source.WalkerState
	Tokenizer  TokenizerState
	Pend       []*Segment
	DecodeTime time.Duration

	SeenFaults  int
	SeenSkipped uint64
	SeenDesyncs int
	SeenRegress int

	CarriedDesyncs  int
	CarriedFaults   int
	CarriedSkipPkts int
	CarriedSkipByte uint64
}

// CheckClocks validates the clocks of the open segment and of every
// pending segment (Segment.checkClock). A state whose segments have
// tokens but no usable clock would resume with wrong timestamps.
func (st *ThreadAnalyzerState) CheckClocks() error {
	if st.Tokenizer.Cur != nil {
		if err := st.Tokenizer.Cur.checkClock(); err != nil {
			return fmt.Errorf("open segment: %w", err)
		}
	}
	for i, seg := range st.Pend {
		if err := seg.checkClock(); err != nil {
			return fmt.Errorf("pending segment %d: %w", i, err)
		}
	}
	return nil
}

// segments returns the closed segments, in segment order.
func (a *ThreadAnalyzer) segments() []*Segment {
	segs := make([]*Segment, len(a.jobs))
	for i, j := range a.jobs {
		segs[i] = j.seg
	}
	return segs
}

// ExportState snapshots the analyzer for a checkpoint. It panics after
// Finish: a finished thread is a result, not resumable state.
func (a *ThreadAnalyzer) ExportState() ThreadAnalyzerState {
	if a.finished {
		panic("core: ThreadAnalyzer.ExportState after Finish")
	}
	return ThreadAnalyzerState{
		Thread:     a.res.Thread,
		Decoder:    a.dec.ExportState(),
		Tokenizer:  a.tk.exportState(),
		Pend:       a.segments(),
		DecodeTime: a.res.DecodeTime,

		SeenFaults:  a.seenFaults,
		SeenSkipped: a.seenSkipped,
		SeenDesyncs: a.seenDesyncs,
		SeenRegress: a.seenRegress,

		CarriedDesyncs:  a.carriedDesyncs,
		CarriedFaults:   a.carriedFaults,
		CarriedSkipPkts: a.carriedSkipPkts,
		CarriedSkipByte: a.carriedSkipByte,
	}
}

// RestoreState rebuilds a freshly-constructed analyzer from a checkpointed
// state. Each restored segment becomes a job again, its tasks queued
// under ctx like those of a segment closed by Feed.
func (a *ThreadAnalyzer) RestoreState(ctx context.Context, st ThreadAnalyzerState) error {
	if err := a.dec.RestoreState(st.Decoder); err != nil {
		return err
	}
	a.tk.restoreState(st.Tokenizer)
	a.takeSegments(ctx, st.Pend, true)
	a.res.Thread = st.Thread
	a.res.DecodeTime = st.DecodeTime

	a.seenFaults = st.SeenFaults
	a.seenSkipped = st.SeenSkipped
	a.seenDesyncs = st.SeenDesyncs
	a.seenRegress = st.SeenRegress

	a.carriedDesyncs = st.CarriedDesyncs
	a.carriedFaults = st.CarriedFaults
	a.carriedSkipPkts = st.CarriedSkipPkts
	a.carriedSkipByte = st.CarriedSkipByte
	return nil
}
