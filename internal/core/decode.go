package core

import (
	"slices"

	"jportal/internal/bytecode"
	"jportal/internal/meta"
	"jportal/internal/source"
)

// DecodeThreadStats summarises one thread's decode.
type DecodeThreadStats struct {
	Segments      int
	Tokens        int
	LocatedTokens int
	Gaps          int
	LostBytes     uint64
	NativeDesyncs int
	// MalformedPackets counts typed decode faults (graceful degradation:
	// each one cost a skip to the next PSB, not the thread).
	MalformedPackets int
	// SkippedPackets and QuarantinedBytes measure the spans discarded
	// while resynchronizing after malformed packets.
	SkippedPackets   int
	QuarantinedBytes uint64
	// TimeRegressions counts timestamp updates that went backwards within
	// one thread's stitched stream — the per-core clock-skew signature
	// (§7.2 timestamp inconsistency). Diagnostics only: decoding proceeds
	// with the regressed clock exactly as before.
	TimeRegressions int
}

// TokenizeEvents lowers native-level decoder events to bytecode tokens,
// splitting segments at gaps and desyncs.
func TokenizeEvents(prog *bytecode.Program, events []source.Event) ([]*Segment, *DecodeThreadStats) {
	tk := newTokenizer(prog)
	tk.feed(events)
	segs := tk.finish()
	st := tk.st
	return segs, &st
}

// StreamTokenizer is the exported handle over the streaming tokenizer:
// Feed lowers event chunks as they arrive, Take harvests (and forgets)
// the segments completed so far, Finish closes the open segment. Feeding
// chunks produces exactly the segments one TokenizeEvents batch call
// would. The bench harness drives it to measure the tokenizer's steady
// state — one persistent tokenizer, Take discarding output — where the
// token arena keeps allocations at ~O(tokens/slabSize) per chunk.
type StreamTokenizer struct{ t *tokenizer }

// NewStreamTokenizer returns a streaming tokenizer for prog.
func NewStreamTokenizer(prog *bytecode.Program) *StreamTokenizer {
	return &StreamTokenizer{t: newTokenizer(prog)}
}

// Feed lowers one chunk of native-level decoder events.
func (s *StreamTokenizer) Feed(events []source.Event) { s.t.feed(events) }

// Take returns the segments completed so far and forgets them. The slice
// reuses one harvest buffer across calls: it is valid until the next Feed.
func (s *StreamTokenizer) Take() []*Segment { return s.t.take() }

// Finish closes the open segment and returns the remaining segments.
func (s *StreamTokenizer) Finish() []*Segment { return s.t.finish() }

// Stats returns the lowering statistics accumulated so far.
func (s *StreamTokenizer) Stats() DecodeThreadStats { return s.t.st }

// tokenizer is the streaming form of TokenizeEvents: all lowering state —
// the open segment, the pending gap, the pending conditional dispatch, the
// current TSC — lives in the struct, so feeding events in chunks produces
// exactly the segments a single batch call would. Completed segments are
// harvested with take; finish closes the open segment.
type tokenizer struct {
	prog *bytecode.Program
	st   DecodeThreadStats
	segs []*Segment
	cur  *Segment
	// pendingGap is the gap awaiting attachment to the next segment.
	pendingGap *GapInfo
	tsc        uint64
	// pendingCond indexes cur's conditional dispatch awaiting its TNT
	// (interpreter mode pairs TIP(template) + TNT). -1 = none.
	pendingCond int

	// slab is the token arena (DESIGN.md §12): tokens append into one
	// large backing array and segments are carved out of it as capped
	// sub-slices, so the steady state allocates one slab per
	// tokenSlabSize tokens instead of growing a fresh slice per
	// segment. Flushed segments alias retired slabs, which stay alive
	// exactly as long as the flows that reference them — this is an
	// arena, not a pool: slabs are never recycled. segStart is the
	// index in slab where the open segment begins; cur.Tokens is kept
	// as a live capped view slab[segStart:len(slab):len(slab)].
	slab     []Token
	segStart int
	// marks is the clock arena beside the token slab, run the same way:
	// cur.Clock is the live capped view marks[markStart:len(marks)].
	marks     []TSCMark
	markStart int
	// curLocated counts located tokens in the open segment (maintained
	// by appendTok/appendToks so flush doesn't rescan the segment).
	curLocated int
	// segSlab is the segment-header arena: headers are carved out of a
	// fixed-capacity block (never append-grown past cap, so issued
	// pointers stay valid) and a fresh block starts when one fills.
	segSlab []Segment

	// lowered maps each blob met so far to its pre-lowered token run in
	// lowToks and its record tables in lowRecs (see lower). The arenas
	// grow by append; nothing outside the tokenizer aliases them, since
	// appendToks copies a run into the token slab. The table is derived
	// from blobs, which are never mutated after export, so it is never
	// checkpointed: restoreState and breakSegment drop it and the next
	// range rebuilds what it needs.
	lowered map[*meta.CompiledMethod]loweredBlob
	lowToks []Token
	lowRecs []int32
}

// tokenSlabSize is the smallest token-arena block (48KB of 12-byte
// tokens), markSlabSize the smallest clock-arena block and segSlabSize
// the header-arena block size.
const (
	tokenSlabSize = 4096
	markSlabSize  = 256
	segSlabSize   = 128
)

func newTokenizer(prog *bytecode.Program) *tokenizer {
	t := &tokenizer{prog: prog, pendingCond: -1, lowered: make(map[*meta.CompiledMethod]loweredBlob)}
	t.cur = t.newSeg()
	return t
}

// newSeg carves a fresh segment header out of the header arena.
func (t *tokenizer) newSeg() *Segment {
	if len(t.segSlab) == cap(t.segSlab) {
		t.segSlab = make([]Segment, 0, segSlabSize)
	}
	t.segSlab = append(t.segSlab, Segment{})
	return &t.segSlab[len(t.segSlab)-1]
}

// refill starts a new arena block holding the open span buf[start:]
// plus room for at least need more: minSize elements, doubled until it
// is at least twice the open span plus need, so a long open segment is
// copied O(log n) times. Spans flushed before start keep aliasing the
// retired block.
func refill[T any](buf []T, start, need, minSize int) []T {
	open := len(buf) - start
	size := minSize
	for size < (open+need)*2 {
		size *= 2
	}
	nb := make([]T, open, size)
	copy(nb, buf[start:])
	return nb
}

func (t *tokenizer) flush(gapAfter *GapInfo) {
	if len(t.cur.Tokens) > 0 {
		t.cur.GapBefore = t.pendingGap
		t.segs = append(t.segs, t.cur)
		t.st.Segments++
		t.st.Tokens += len(t.cur.Tokens)
		t.st.LocatedTokens += t.curLocated
		t.pendingGap = nil
		t.cur = t.newSeg()
	} else if t.pendingGap != nil && gapAfter != nil {
		// Merge adjacent gaps.
		gapAfter.LostBytes += t.pendingGap.LostBytes
		if t.pendingGap.Start < gapAfter.Start {
			gapAfter.Start = t.pendingGap.Start
		}
		gapAfter.Desync = gapAfter.Desync && t.pendingGap.Desync
	}
	t.segStart = len(t.slab)
	t.markStart = len(t.marks)
	t.curLocated = 0
	t.pendingGap = gapAfter
}

// appendTok appends tok to the open segment, stamped with the current
// TSC.
func (t *tokenizer) appendTok(tok Token) {
	if tok.Located() {
		t.curLocated++
	}
	t.reserve(1)
	t.slab = append(t.slab, tok)
	t.cur.Tokens = t.slab[t.segStart:len(t.slab):len(t.slab)]
}

// appendToks appends a run of tokens to the open segment, all stamped
// with the current TSC. allLocated says every token carries a method.
func (t *tokenizer) appendToks(toks []Token, allLocated bool) {
	if len(toks) == 0 {
		return
	}
	if allLocated {
		t.curLocated += len(toks)
	} else {
		for i := range toks {
			if toks[i].Located() {
				t.curLocated++
			}
		}
	}
	t.reserve(len(toks))
	t.slab = append(t.slab, toks...)
	t.cur.Tokens = t.slab[t.segStart:len(t.slab):len(t.slab)]
}

// reserve readies the open segment for n more tokens at the current TSC:
// a clock mark is appended only when the TSC differs from the open
// segment's last mark, and the token arena refills if the n do not fit.
func (t *tokenizer) reserve(n int) {
	if c := t.cur.Clock; len(c) == 0 || c[len(c)-1].TSC != t.tsc {
		if len(t.marks) == cap(t.marks) {
			t.marks = refill(t.marks, t.markStart, 1, markSlabSize)
			t.markStart = 0
		}
		t.marks = append(t.marks, TSCMark{At: int32(len(t.cur.Tokens)), TSC: t.tsc})
		t.cur.Clock = t.marks[t.markStart:len(t.marks):len(t.marks)]
	}
	if len(t.slab)+n > cap(t.slab) {
		t.slab = refill(t.slab, t.segStart, n, tokenSlabSize)
		t.segStart = 0
	}
}

// feed lowers one chunk of decoder events.
func (t *tokenizer) feed(events []source.Event) {
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case source.EvTime:
			if ev.TSC < t.tsc {
				t.st.TimeRegressions++
			}
			t.tsc = ev.TSC
		case source.EvEnable, source.EvDisable, source.EvStub:
			t.pendingCond = -1
		case source.EvGap:
			t.pendingCond = -1
			t.st.Gaps++
			t.st.LostBytes += ev.LostBytes
			t.tsc = ev.GapEnd
			t.flush(&GapInfo{LostBytes: ev.LostBytes, Start: ev.TSC, End: ev.GapEnd})
		case source.EvDesync:
			t.pendingCond = -1
			t.flush(&GapInfo{Start: t.tsc, End: t.tsc, Desync: true})
		case source.EvFault:
			// A malformed packet: the decoder is skipping to the next PSB.
			// Split the segment exactly like a desync — the span between
			// here and the resync point is quarantined, not decoded.
			t.pendingCond = -1
			t.flush(&GapInfo{Start: t.tsc, End: t.tsc, Desync: true})
		case source.EvTemplate:
			t.appendTok(Token{Op: ev.Op, Method: bytecode.NoMethod})
			if ev.Op.IsCondBranch() {
				t.pendingCond = len(t.cur.Tokens) - 1
			} else {
				t.pendingCond = -1
			}
		case source.EvTemplateTNT:
			if t.pendingCond >= 0 && t.cur.Tokens[t.pendingCond].Op == ev.Op {
				t.cur.Tokens[t.pendingCond].HasDir = true
				t.cur.Tokens[t.pendingCond].Taken = ev.Taken
			} else {
				// A TNT without its dispatch (post-loss FUP anchored the
				// bits mid-template): synthesise the branch token.
				t.appendTok(Token{Op: ev.Op, Method: bytecode.NoMethod, HasDir: true, Taken: ev.Taken})
			}
			t.pendingCond = -1
		case source.EvJITRange:
			t.pendingCond = -1
			t.tokenizeRange(ev)
		}
	}
}

// take returns the segments completed so far and forgets them. The
// returned slice aliases the tokenizer's reused harvest buffer — it is
// valid only until the next feed, so callers must consume or copy it
// first (the analyzer appends it straight into its pending segments). The
// Segment pointers themselves live in the header arena and stay valid.
func (t *tokenizer) take() []*Segment {
	segs := t.segs
	t.segs = t.segs[:0]
	return segs
}

// finish closes the open segment and returns the remaining completed ones.
func (t *tokenizer) finish() []*Segment {
	t.flush(nil)
	return t.take()
}

// breakSegment force-closes the open segment around a quarantined span:
// after a stage crash the tokens accumulated so far are still sound (they
// were lowered before the crash) but the stream position is not, so the
// next segment starts behind a synthetic desync gap.
func (t *tokenizer) breakSegment() {
	t.dropLowered()
	t.pendingCond = -1
	t.flush(&GapInfo{Start: t.tsc, End: t.tsc, Desync: true})
}

// loweredBlob locates one blob's pre-lowered token run in the tokenizer's
// lowering arenas (DESIGN.md §12). The run is what one walk of the whole
// blob's debug records emits: a token per framed record whose innermost
// (method, pc) differs from the previous framed record's. The blob's
// per-record tables, n+1 entries each, sit back to back in lowRecs:
//
//   - idx[i] is the number of run tokens emitted for records before i,
//     so records [i, k) emit run[idx[i]:idx[k]];
//   - next[i]>>2 is the first framed record at or after i (n if none),
//     and its low bits say how a range starting there differs from the
//     run, whose walk began earlier: startRepeat if the record repeats
//     its predecessor's (method, pc), so the run has no token for it but
//     the range emits one; startSkip if it carries the walk's starting
//     state (NoMethod, -1), which a range starting there never emits.
type loweredBlob struct {
	tok, rec, n int32 // run offset in lowToks, table offset in lowRecs, len(Debug)
	// allLocated: every run token carries a method, so a run's located
	// count is its length.
	allLocated bool
}

// Range-start kinds in the low bits of a loweredBlob's next table.
const (
	startRepeat = 1
	startSkip   = 2
)

// lower walks blob's debug records once and appends its token run and
// record tables to the lowering arenas.
func (t *tokenizer) lower(blob *meta.CompiledMethod) loweredBlob {
	n := len(blob.Debug)
	lw := loweredBlob{tok: int32(len(t.lowToks)), rec: int32(len(t.lowRecs)), n: int32(n), allLocated: true}
	t.lowRecs = slices.Grow(t.lowRecs, 2*n+2)[:int(lw.rec)+2*n+2]
	idx, next := t.lowRecs[lw.rec:int(lw.rec)+n+1], t.lowRecs[int(lw.rec)+n+1:]
	var lastM bytecode.MethodID = bytecode.NoMethod
	lastPC := int32(-1)
	var lastMethod *bytecode.Method
	for i := range blob.Debug {
		idx[i] = int32(len(t.lowToks)) - lw.tok
		rec := &blob.Debug[i]
		next[i] = -1 // frameless; the backward pass below resolves it
		if len(rec.Frames) == 0 {
			continue
		}
		inner := rec.Frames[len(rec.Frames)-1]
		repeat := inner.Method == lastM && inner.PC == lastPC
		switch {
		case inner.Method == bytecode.NoMethod && inner.PC == -1:
			next[i] = startSkip
		case repeat:
			next[i] = startRepeat
		default:
			next[i] = 0
		}
		if repeat {
			continue // same bytecode instruction, subsequent native instr
		}
		if inner.Method != lastM {
			lastMethod = t.prog.Method(inner.Method)
		}
		lastM, lastPC = inner.Method, inner.PC
		tok := Token{Method: inner.Method, PC: inner.PC, Approx: rec.Approximate}
		if lastMethod != nil && inner.PC >= 0 && int(inner.PC) < len(lastMethod.Code) {
			tok.Op = lastMethod.Code[inner.PC].Op
		}
		if !tok.Located() {
			lw.allLocated = false
		}
		t.lowToks = append(t.lowToks, tok)
	}
	idx[n] = int32(len(t.lowToks)) - lw.tok
	next[n] = int32(n) << 2
	for i := n - 1; i >= 0; i-- {
		if next[i] < 0 {
			next[i] = next[i+1]
		} else {
			next[i] |= int32(i) << 2
		}
	}
	return lw
}

// dropLowered forgets every pre-lowered blob (a crash may have cut a
// lowering short); the next range over a blob lowers it again.
func (t *tokenizer) dropLowered() {
	clear(t.lowered)
	t.lowToks, t.lowRecs = t.lowToks[:0], t.lowRecs[:0]
}

// tokenizeRange converts an executed native instruction range into bytecode
// tokens via the blob's debug records, collapsing the several native
// instructions a bytecode lowers to into one token, and resolving inline
// frames to the innermost instruction (§6, "Dealing with Inlined Code").
// The first range over a blob lowers the whole blob once (lower); every
// range then appends a slice of that run. Stale metadata lowers as it
// always has: a range starting before record 0 emits nothing, one running
// past the last record stops there, frameless records emit nothing, and a
// pc outside its method's code gives a token with Op 0.
func (t *tokenizer) tokenizeRange(ev *source.Event) {
	lw, ok := t.lowered[ev.Blob]
	if !ok {
		lw = t.lower(ev.Blob)
		t.lowered[ev.Blob] = lw
	}
	first, last := int(ev.First), min(int(ev.Last), int(lw.n))
	if first < 0 || first >= last {
		return
	}
	idx := t.lowRecs[lw.rec : lw.rec+lw.n+1]
	next := t.lowRecs[lw.rec+lw.n+1 : lw.rec+2*lw.n+2]
	j := int(next[first] >> 2)
	if j >= last {
		return
	}
	run := t.lowToks[lw.tok:]
	start := idx[j]
	switch next[first] & 3 {
	case startRepeat:
		// The range emits the repeated instruction once, with this
		// record's approximation flag.
		tok := run[start-1]
		tok.Approx = ev.Blob.Debug[j].Approximate
		t.appendTok(tok)
	case startSkip:
		start = idx[j+1]
	}
	t.appendToks(run[start:idx[last]], lw.allLocated)
}
