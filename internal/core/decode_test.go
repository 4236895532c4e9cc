package core

import (
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
