package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/isa"
	"jportal/internal/meta"
	"jportal/internal/source"
)

func mkEvents() ([]source.Event, *bytecode.Program, *meta.CompiledMethod) {
	prog := bytecode.MustAssemble(fig2Src)
	fun := prog.MethodByName("Test.fun")
	// A small fake blob covering fun's first three instructions, with the
	// middle one carrying an inline frame.
	a := isa.NewAssembler("b", meta.CodeCacheBase)
	a.Emit(isa.Linear, 4, 0, "")
	a.Emit(isa.Linear, 4, 0, "")
	a.Emit(isa.Linear, 4, 0, "")
	blob := a.Finish()
	cm := &meta.CompiledMethod{
		Root: fun.ID, Tier: 2, Code: blob,
		Debug: []meta.DebugRecord{
			{Addr: blob.Instrs[0].Addr, Frames: []meta.Frame{{Method: fun.ID, PC: 0}}},
			{Addr: blob.Instrs[1].Addr, Frames: []meta.Frame{{Method: fun.ID, PC: 0}}}, // same bci: collapses
			{Addr: blob.Instrs[2].Addr, Frames: []meta.Frame{{Method: fun.ID, PC: 1}}, Approximate: true},
		},
	}
	events := []source.Event{
		{Kind: source.EvTime, TSC: 100},
		{Kind: source.EvTemplate, Op: bytecode.ILOAD},
		{Kind: source.EvTemplate, Op: bytecode.IFEQ},
		{Kind: source.EvTemplateTNT, Op: bytecode.IFEQ, Taken: true},
		{Kind: source.EvGap, LostBytes: 64, TSC: 150, GapEnd: 400},
		{Kind: source.EvJITRange, Blob: cm, First: 0, Last: 3},
		{Kind: source.EvDesync},
		{Kind: source.EvTemplate, Op: bytecode.IRETURN},
	}
	return events, prog, cm
}

func TestTokenizeEvents(t *testing.T) {
	events, prog, _ := mkEvents()
	segs, st := TokenizeEvents(prog, events)
	if len(segs) != 3 {
		t.Fatalf("segments: %d", len(segs))
	}
	// Segment 0: iload, ifeq(taken).
	s0 := segs[0].Tokens
	if len(s0) != 2 || s0[0].Op != bytecode.ILOAD || !s0[1].HasDir || !s0[1].Taken {
		t.Errorf("seg0: %v", s0)
	}
	// One clock mark per segment: the TSC changes only at the gap.
	for i, want := range []uint64{100, 400, 400} {
		if c := segs[i].Clock; len(c) != 1 || c[0] != (TSCMark{At: 0, TSC: want}) {
			t.Errorf("seg%d clock: %v, want [{0 %d}]", i, c, want)
		}
	}
	// Segment 1: the JIT range collapsed to 2 located tokens; gap before.
	s1 := segs[1]
	if s1.GapBefore == nil || s1.GapBefore.LostBytes != 64 || s1.GapBefore.Desync {
		t.Fatalf("seg1 gap: %+v", s1.GapBefore)
	}
	if len(s1.Tokens) != 2 {
		t.Fatalf("seg1 tokens: %v", s1.Tokens)
	}
	if !s1.Tokens[0].Located() || s1.Tokens[0].PC != 0 || s1.Tokens[1].PC != 1 {
		t.Errorf("seg1 locations: %v", s1.Tokens)
	}
	if s1.Tokens[0].Op != bytecode.ILOAD {
		t.Errorf("located token op not enriched: %v", s1.Tokens[0].Op)
	}
	if !s1.Tokens[1].Approx {
		t.Error("approximate flag lost")
	}
	// Segment 2 follows the desync.
	if segs[2].GapBefore == nil || !segs[2].GapBefore.Desync {
		t.Errorf("seg2 gap: %+v", segs[2].GapBefore)
	}
	if st.Segments != 3 || st.Gaps != 1 || st.LostBytes != 64 {
		t.Errorf("stats: %+v", st)
	}
	if st.LocatedTokens != 2 {
		t.Errorf("located tokens: %d", st.LocatedTokens)
	}
}

func TestTokenizeSynthesisesOrphanTNT(t *testing.T) {
	prog := bytecode.MustAssemble(fig2Src)
	events := []source.Event{
		// A TNT whose dispatch was lost (post-gap FUP anchor): the branch
		// token is synthesised.
		{Kind: source.EvTemplateTNT, Op: bytecode.IFNE, Taken: false},
	}
	segs, _ := TokenizeEvents(prog, events)
	if len(segs) != 1 || len(segs[0].Tokens) != 1 {
		t.Fatalf("segs: %+v", segs)
	}
	tk := segs[0].Tokens[0]
	if tk.Op != bytecode.IFNE || !tk.HasDir || tk.Taken {
		t.Errorf("token: %v", tk)
	}
}

func TestTokenizeMergesAdjacentGaps(t *testing.T) {
	prog := bytecode.MustAssemble(fig2Src)
	events := []source.Event{
		{Kind: source.EvTemplate, Op: bytecode.ILOAD},
		{Kind: source.EvGap, LostBytes: 10, TSC: 100, GapEnd: 200},
		{Kind: source.EvGap, LostBytes: 20, TSC: 200, GapEnd: 300},
		{Kind: source.EvTemplate, Op: bytecode.ICONST},
	}
	segs, st := TokenizeEvents(prog, events)
	if len(segs) != 2 {
		t.Fatalf("segments: %d", len(segs))
	}
	g := segs[1].GapBefore
	if g == nil || g.LostBytes != 30 || g.Start != 100 || g.End != 300 {
		t.Errorf("merged gap: %+v", g)
	}
	if st.Gaps != 2 {
		t.Errorf("gap count: %d", st.Gaps)
	}
}

func TestSegmentAbstractionCaching(t *testing.T) {
	seg := &Segment{Tokens: fig2ElseTrace()}
	a := seg.Abstraction(2)
	b := seg.Abstraction(2)
	if &a[0] != &b[0] {
		t.Error("abstraction not cached")
	}
}

// oracleTokenizeRange is the per-instruction lowering that tokenizer.lower
// pre-computes: one walk of ev's debug records, collapsing repeats of the
// previous framed record's (method, pc) and appending each token on its
// own.
func oracleTokenizeRange(t *tokenizer, ev *source.Event) {
	blob := ev.Blob
	var lastM bytecode.MethodID = bytecode.NoMethod
	lastPC := int32(-1)
	var lastMethod *bytecode.Method
	for i := int(ev.First); i < int(ev.Last); i++ {
		if i < 0 || i >= len(blob.Debug) {
			return // stale metadata: fewer debug records than instructions
		}
		rec := &blob.Debug[i]
		if len(rec.Frames) == 0 {
			continue // stale metadata: frameless record
		}
		inner := rec.Frames[len(rec.Frames)-1]
		if inner.Method == lastM && inner.PC == lastPC {
			continue // same bytecode instruction, subsequent native instr
		}
		if inner.Method != lastM {
			lastMethod = t.prog.Method(inner.Method)
		}
		lastM, lastPC = inner.Method, inner.PC
		tok := Token{
			Method: inner.Method,
			PC:     inner.PC,
			Approx: rec.Approximate,
		}
		if lastMethod != nil && int(inner.PC) < len(lastMethod.Code) {
			tok.Op = lastMethod.Code[inner.PC].Op
		}
		t.appendTok(tok)
	}
}

// oracleTokenize is TokenizeEvents with every JIT range lowered by
// oracleTokenizeRange.
func oracleTokenize(prog *bytecode.Program, events []source.Event) ([]*Segment, DecodeThreadStats) {
	t := newTokenizer(prog)
	for i := range events {
		if events[i].Kind == source.EvJITRange {
			t.pendingCond = -1
			oracleTokenizeRange(t, &events[i])
			continue
		}
		t.feed(events[i : i+1])
	}
	segs := t.finish()
	return segs, t.st
}

// lowerBlob is a JIT blob over Test.fun and Test.main whose records hit
// every case of the lowering: a repeat whose Approx differs from its
// predecessor's (1), a frameless record (2), a repeat across it (3), an
// inline frame in another method (5), an out-of-range pc (6), a method-less
// frame at the walk's starting (method, pc) and its repeat (7, 8), and a
// method the program does not have (10).
func lowerBlob(prog *bytecode.Program) *meta.CompiledMethod {
	fun := prog.MethodByName("Test.fun")
	main := prog.MethodByName("Test.main")
	frames := [][]meta.Frame{
		{{Method: fun.ID, PC: 0}},
		{{Method: fun.ID, PC: 0}},
		nil,
		{{Method: fun.ID, PC: 0}},
		{{Method: fun.ID, PC: 1}},
		{{Method: main.ID, PC: 2}, {Method: fun.ID, PC: 5}},
		{{Method: fun.ID, PC: 99}},
		{{Method: bytecode.NoMethod, PC: -1}},
		{{Method: bytecode.NoMethod, PC: -1}},
		{{Method: main.ID, PC: 2}},
		{{Method: 99, PC: 0}},
		{{Method: fun.ID, PC: 3}},
	}
	a := isa.NewAssembler("b", meta.CodeCacheBase)
	for range frames {
		a.Emit(isa.Linear, 4, 0, "")
	}
	blob := a.Finish()
	cm := &meta.CompiledMethod{Root: fun.ID, Tier: 2, Code: blob}
	for i, fr := range frames {
		cm.Debug = append(cm.Debug, meta.DebugRecord{Addr: blob.Instrs[i].Addr, Frames: fr, Approximate: i == 1 || i == 4})
	}
	return cm
}

// sameTokenization fails t unless the two tokenizations agree on every
// segment's tokens, clock and gap, and on the stats.
func sameTokenization(t *testing.T, what string, got, want []*Segment, gotSt, wantSt DecodeThreadStats) {
	t.Helper()
	if gotSt != wantSt {
		t.Fatalf("%s: stats %+v, want %+v", what, gotSt, wantSt)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d segments, want %d", what, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !reflect.DeepEqual(w.Tokens, g.Tokens) || !reflect.DeepEqual(w.Clock, g.Clock) ||
			!reflect.DeepEqual(w.GapBefore, g.GapBefore) {
			t.Fatalf("%s: segment %d: tokens %v clock %v gap %+v, want %v %v %+v",
				what, i, g.Tokens, g.Clock, g.GapBefore, w.Tokens, w.Clock, w.GapBefore)
		}
	}
}

// TestLoweredRangesMatchOracle: every range [First, Last) over lowerBlob,
// stale ones included (First < 0, First >= Last, Last past the records),
// tokenizes as the per-instruction walk does.
func TestLoweredRangesMatchOracle(t *testing.T) {
	prog := bytecode.MustAssemble(fig2Src)
	cm := lowerBlob(prog)
	n := len(cm.Debug)
	for first := -2; first <= n+1; first++ {
		for last := -1; last <= n+2; last++ {
			events := []source.Event{
				{Kind: source.EvTime, TSC: 10},
				{Kind: source.EvTemplate, Op: bytecode.ILOAD},
				{Kind: source.EvJITRange, Blob: cm, First: int32(first), Last: int32(last)},
				{Kind: source.EvTime, TSC: 20},
				{Kind: source.EvJITRange, Blob: cm, First: int32(first), Last: int32(last)},
			}
			got, gotSt := TokenizeEvents(prog, events)
			want, wantSt := oracleTokenize(prog, events)
			sameTokenization(t, fmt.Sprintf("range [%d, %d)", first, last), got, want, *gotSt, wantSt)
		}
	}

	// A range starting on a repeat emits the repeated instruction with
	// the repeat's own Approx; one starting on a frameless record begins
	// at the next framed one.
	segs, _ := TokenizeEvents(prog, []source.Event{{Kind: source.EvJITRange, Blob: cm, First: 1, Last: 2}})
	if len(segs) != 1 || len(segs[0].Tokens) != 1 || !segs[0].Tokens[0].Approx || segs[0].Tokens[0].PC != 0 {
		t.Errorf("range on a repeat: %v", segs)
	}
	segs, _ = TokenizeEvents(prog, []source.Event{{Kind: source.EvJITRange, Blob: cm, First: 2, Last: 5}})
	if len(segs) != 1 || len(segs[0].Tokens) != 2 || segs[0].Tokens[0].Approx || segs[0].Tokens[1].PC != 1 {
		t.Errorf("range on a frameless record: %v", segs)
	}
}

// TestLoweredTokenizerMatchesOracle: random event streams over clockBlob
// and lowerBlob, fed in random chunks with random segment breaks (which
// drop the lowered table), tokenize as the per-instruction walk does.
func TestLoweredTokenizerMatchesOracle(t *testing.T) {
	prog := bytecode.MustAssemble(fig2Src)
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 60; iter++ {
		cm := clockBlob(prog)
		if iter%2 == 1 {
			cm = lowerBlob(prog)
		}
		events := randomEvents(rng, 100+rng.Intn(2000), []int{8, 40, 100000}[iter%3], cm)
		want, wantSt := oracleTokenize(prog, events)
		got, gotSt := TokenizeEvents(prog, events)
		sameTokenization(t, fmt.Sprintf("iter %d batch", iter), got, want, *gotSt, wantSt)

		// The same stream in chunks, both tokenizers breaking their
		// segment at the same chunk boundaries.
		lt, ot := newTokenizer(prog), newTokenizer(prog)
		var gotSegs, wantSegs []*Segment
		for pos := 0; pos < len(events); {
			k := min(1+rng.Intn(64), len(events)-pos)
			lt.feed(events[pos : pos+k])
			for i := pos; i < pos+k; i++ {
				if events[i].Kind == source.EvJITRange {
					ot.pendingCond = -1
					oracleTokenizeRange(ot, &events[i])
				} else {
					ot.feed(events[i : i+1])
				}
			}
			pos += k
			if rng.Intn(5) == 0 {
				lt.breakSegment()
				ot.breakSegment()
			}
			gotSegs = append(gotSegs, lt.take()...)
			wantSegs = append(wantSegs, ot.take()...)
		}
		gotSegs = append(gotSegs, lt.finish()...)
		wantSegs = append(wantSegs, ot.finish()...)
		sameTokenization(t, fmt.Sprintf("iter %d chunked", iter), gotSegs, wantSegs, lt.st, ot.st)
	}
}
