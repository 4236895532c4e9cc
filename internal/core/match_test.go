package core

import (
	"testing"
	"testing/quick"

	"jportal/internal/bytecode"
	"jportal/internal/cfg"
)

// fig2Src is the paper's running example (Figure 2a).
const fig2Src = `
method Test.fun(2) returns int {
    iload 0
    ifeq Lelse
    iload 1
    iconst 1
    iadd
    istore 1
    goto Ljoin
Lelse:
    iload 1
    iconst 2
    isub
    istore 1
Ljoin:
    iload 1
    iconst 2
    irem
    ifne Lfalse
    iconst 1
    ireturn
Lfalse:
    iconst 0
    ireturn
}

method Test.main(0) {
    iconst 1
    iconst 7
    invokestatic Test.fun
    pop
    return
}
entry Test.main
`

func fig2Matcher(t *testing.T) (*bytecode.Program, *Matcher) {
	t.Helper()
	p := bytecode.MustAssemble(fig2Src)
	g := cfg.BuildICFG(p, cfg.DefaultOptions())
	return p, NewMatcher(g)
}

// tok builds an interpreter token.
func tok(op bytecode.Opcode) Token {
	return Token{Op: op, Method: bytecode.NoMethod}
}

func dtok(op bytecode.Opcode, taken bool) Token {
	return Token{Op: op, Method: bytecode.NoMethod, HasDir: true, Taken: taken}
}

// fig2TakenTrace is the decoded sequence of Figure 2(e): a=1 (ifeq not
// taken is... ifeq 0 jumps on zero; a=1 means fallthrough... the paper's
// trace takes the else path), b=7.
func fig2ElseTrace() []Token {
	return []Token{
		tok(bytecode.ILOAD),       // 0: iload_0
		dtok(bytecode.IFEQ, true), // 1: ifeq -> 11 (taken)
		tok(bytecode.ILOAD),       // 11
		tok(bytecode.ICONST),      // 12
		tok(bytecode.ISUB),        // 13
		tok(bytecode.ISTORE),      // 14
		tok(bytecode.ILOAD),       // 15
		tok(bytecode.ICONST),      // 16
		tok(bytecode.IREM),        // 17
		dtok(bytecode.IFNE, true), // 18 -> 23 (taken)
		tok(bytecode.ICONST),      // 23
		tok(bytecode.IRETURN),     // 24
	}
}

func TestMatchFromFig2(t *testing.T) {
	p, m := fig2Matcher(t)
	fun := p.MethodByName("Test.fun")
	toks := fig2ElseTrace()
	res := m.MatchFromScratch(m.NewScratch(), m.NodesWithOp(toks[0].Op), toks)
	if !res.Complete {
		t.Fatalf("matched only %d of %d", res.Matched, len(toks))
	}
	wantPCs := []int32{0, 1, 7, 8, 9, 10, 11, 12, 13, 14, 17, 18}
	for i, n := range res.Path {
		mid, pc := m.G.Location(n)
		if mid != fun.ID || pc != wantPCs[i] {
			t.Errorf("step %d: m%d@%d, want m%d@%d", i, mid, pc, fun.ID, wantPCs[i])
		}
	}
}

func TestMatchRejectsImpossibleSequence(t *testing.T) {
	_, m := fig2Matcher(t)
	toks := []Token{
		tok(bytecode.ILOAD),
		tok(bytecode.IADD), // no iload is followed by iadd in this program
	}
	res := m.MatchFromScratch(m.NewScratch(), m.NodesWithOp(toks[0].Op), toks)
	if res.Complete {
		t.Fatal("impossible sequence accepted")
	}
	if res.Matched != 1 {
		t.Errorf("matched %d, want 1", res.Matched)
	}
}

func TestMatchBranchDirectionSelectsSuccessor(t *testing.T) {
	p, m := fig2Matcher(t)
	fun := p.MethodByName("Test.fun")
	// Not-taken: ifeq falls through to iload@2.
	toks := []Token{tok(bytecode.ILOAD), dtok(bytecode.IFEQ, false), tok(bytecode.ILOAD), tok(bytecode.ICONST), tok(bytecode.IADD)}
	res := m.MatchFromScratch(m.NewScratch(), m.NodesWithOp(bytecode.ILOAD), toks)
	if !res.Complete {
		t.Fatalf("not-taken path rejected (matched %d)", res.Matched)
	}
	_, pc := m.G.Location(res.Path[2])
	if pc != 2 {
		t.Errorf("fallthrough landed at %d, want 2", pc)
	}
	_ = fun
}

func TestLocatedTokensPinStates(t *testing.T) {
	p, m := fig2Matcher(t)
	fun := p.MethodByName("Test.fun")
	toks := []Token{
		{Op: bytecode.ILOAD, Method: fun.ID, PC: 15},
		{Op: bytecode.ICONST, Method: fun.ID, PC: 16},
		{Op: bytecode.IREM, Method: fun.ID, PC: 17},
	}
	sc := m.NewScratch()
	res := m.MatchFromScratch(sc, m.candidateStarts(sc, &toks[0]), toks)
	if !res.Complete {
		t.Fatalf("located run rejected")
	}
	_, pc := m.G.Location(res.Path[0])
	if pc != 15 {
		t.Errorf("start at %d, want 15", pc)
	}
}

func TestReanchorOnLocatedGap(t *testing.T) {
	p, m := fig2Matcher(t)
	fun := p.MethodByName("Test.fun")
	// Skip pc16 (as C2 elision would): 15 -> 17 is not an ICFG edge, but
	// the located token re-anchors rather than failing.
	toks := []Token{
		{Op: bytecode.ILOAD, Method: fun.ID, PC: 15},
		{Op: bytecode.IREM, Method: fun.ID, PC: 17},
		{Op: bytecode.IFNE, Method: fun.ID, PC: 18, HasDir: true, Taken: false},
	}
	sc := m.NewScratch()
	res := m.MatchFromScratch(sc, m.candidateStarts(sc, &toks[0]), toks)
	if !res.Complete {
		t.Fatalf("elided run rejected (matched %d)", res.Matched)
	}
	if res.Reanchors != 1 {
		t.Errorf("reanchors = %d, want 1", res.Reanchors)
	}
}

func TestAbstractAcceptanceNecessaryCondition(t *testing.T) {
	// Theorem 4.4: concrete acceptance implies abstract acceptance.
	// Property-check over random starting nodes and the two traces.
	_, m := fig2Matcher(t)
	traces := [][]Token{
		fig2ElseTrace(),
		{tok(bytecode.ILOAD), dtok(bytecode.IFEQ, false), tok(bytecode.ILOAD), tok(bytecode.ICONST), tok(bytecode.IADD), tok(bytecode.ISTORE), tok(bytecode.GOTO), tok(bytecode.ILOAD)},
	}
	f := func(nRaw uint16, which bool) bool {
		toks := traces[0]
		if which {
			toks = traces[1]
		}
		n := cfg.NodeID(int(nRaw) % m.G.NumNodes())
		concrete := m.MatchFromScratch(m.NewScratch(), []cfg.NodeID{n}, toks).Complete
		abstract := m.IsAcceptedAbstractScratch(m.NewScratch(), n, AbstractTokens(toks))
		// concrete => abstract
		return !concrete || abstract
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEnumerateAndTestAgreesWithAbstractionGuided(t *testing.T) {
	_, m := fig2Matcher(t)
	traces := [][]Token{
		fig2ElseTrace(),
		{tok(bytecode.ILOAD), dtok(bytecode.IFEQ, false), tok(bytecode.ILOAD)},
		{tok(bytecode.ICONST), tok(bytecode.IRETURN)},
		{tok(bytecode.IADD), tok(bytecode.IADD)}, // impossible
	}
	for i, toks := range traces {
		r1, ok1 := m.EnumerateAndTest(toks)
		r2, ok2 := m.AbstractionGuided(toks)
		if ok1 != ok2 {
			t.Errorf("trace %d: alg1 ok=%v alg2 ok=%v", i, ok1, ok2)
		}
		if ok1 && (r1.Matched != r2.Matched) {
			t.Errorf("trace %d: matched %d vs %d", i, r1.Matched, r2.Matched)
		}
	}
}

func TestInterproceduralCallReturnMatch(t *testing.T) {
	p, m := fig2Matcher(t)
	main := p.MethodByName("Test.main")
	fun := p.MethodByName("Test.fun")
	toks := []Token{
		tok(bytecode.ICONST),       // main@0
		tok(bytecode.ICONST),       // main@1
		tok(bytecode.INVOKESTATIC), // main@2
		tok(bytecode.ILOAD),        // fun@0 (call edge)
		dtok(bytecode.IFEQ, true),  // fun@1
		tok(bytecode.ILOAD),        // fun@7
		tok(bytecode.ICONST),       // 8
		tok(bytecode.ISUB),         // 9
		tok(bytecode.ISTORE),       // 10
		tok(bytecode.ILOAD),        // 11
		tok(bytecode.ICONST),       // 12
		tok(bytecode.IREM),         // 13
		dtok(bytecode.IFNE, false), // 14 fallthrough
		tok(bytecode.ICONST),       // 15
		tok(bytecode.IRETURN),      // 16 -> return edge to main@3
		tok(bytecode.POP),          // main@3
		tok(bytecode.RETURN),       // main@4
	}
	res := m.MatchFromScratch(m.NewScratch(), m.NodesWithOp(toks[0].Op), toks)
	if !res.Complete {
		t.Fatalf("interprocedural trace rejected at %d", res.Matched)
	}
	mid, pc := m.G.Location(res.Path[3])
	if mid != fun.ID || pc != 0 {
		t.Errorf("call edge went to m%d@%d", mid, pc)
	}
	mid, pc = m.G.Location(res.Path[15])
	if mid != main.ID || pc != 3 {
		t.Errorf("return edge went to m%d@%d", mid, pc)
	}
}

func TestDynCallFallbackToEntries(t *testing.T) {
	src := `
table t0 = T.cb T.cb2
method T.cb(1) returns int {
    iload 0
    ireturn
}
method T.cb2(1) returns int {
    iconst 9
    ireturn
}
method T.main(0) {
    iconst 1
    iconst 0
    invokedyn t0
    pop
    return
}
entry T.main
`
	p := bytecode.MustAssemble(src)
	// Build the ICFG with dynamic calls UNRESOLVED: the matcher must fall
	// back to scanning method entries (the paper's callback search).
	g := cfg.BuildICFG(p, cfg.Options{ResolveDynCalls: false})
	m := NewMatcher(g)
	toks := []Token{
		tok(bytecode.ICONST),
		tok(bytecode.ICONST),
		tok(bytecode.INVOKEDYN),
		tok(bytecode.ILOAD), // T.cb entry
		tok(bytecode.IRETURN),
		tok(bytecode.POP),
		tok(bytecode.RETURN),
	}
	res := m.MatchFromScratch(m.NewScratch(), m.NodesWithOp(toks[0].Op), toks)
	if !res.Complete {
		t.Fatalf("callback fallback failed at %d", res.Matched)
	}
	if res.Fallbacks == 0 {
		t.Error("fallback path not exercised")
	}
	cb := p.MethodByName("T.cb")
	mid, pc := m.G.Location(res.Path[3])
	if mid != cb.ID || pc != 0 {
		t.Errorf("dyn call resolved to m%d@%d", mid, pc)
	}
}

func TestExceptionEdgeMatch(t *testing.T) {
	src := `
method T.m(1) returns int {
Ltry:
    iconst 10
    iload 0
    idiv
    ireturn
Lcatch:
    iconst 100
    iadd
    ireturn
    handler Ltry Lcatch Lcatch any
}
method T.main(0) {
    iconst 0
    invokestatic T.m
    pop
    return
}
entry T.main
`
	p := bytecode.MustAssemble(src)
	g := cfg.BuildICFG(p, cfg.DefaultOptions())
	m := NewMatcher(g)
	// idiv throws: flow goes idiv -> handler (iconst@4).
	toks := []Token{
		tok(bytecode.ICONST),
		tok(bytecode.ILOAD),
		tok(bytecode.IDIV),
		tok(bytecode.ICONST), // handler entry
		tok(bytecode.IADD),
		tok(bytecode.IRETURN),
	}
	res := m.MatchFromScratch(m.NewScratch(), m.NodesWithOp(toks[0].Op), toks)
	if !res.Complete {
		t.Fatalf("exception path rejected at %d", res.Matched)
	}
	meth := p.MethodByName("T.m")
	mid, pc := m.G.Location(res.Path[3])
	if mid != meth.ID || pc != 4 {
		t.Errorf("throw edge went to m%d@%d, want m%d@4", mid, pc, meth.ID)
	}
}

func TestReconstructSegmentSplitsOnHardMismatch(t *testing.T) {
	_, m := fig2Matcher(t)
	// Valid prefix, impossible middle token, valid suffix.
	toks := append(fig2ElseTrace(), tok(bytecode.SWAP)) // swap appears nowhere
	toks = append(toks, tok(bytecode.ICONST), tok(bytecode.IRETURN))
	seg := &Segment{Tokens: toks}
	flow := m.ReconstructSegmentScratch(m.NewScratch(), seg)
	if flow.Skipped == 0 {
		t.Error("impossible token should be skipped")
	}
	if flow.Runs < 2 {
		t.Errorf("runs = %d, want >= 2", flow.Runs)
	}
	steps := flow.Steps()
	if len(steps) != len(toks)-1 {
		t.Errorf("steps %d, want %d", len(steps), len(toks)-1)
	}
}
