package cfg

import (
	"testing"

	"jportal/internal/bytecode"
)

const diamondSrc = `
method T.fun(2) returns int {
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
    ireturn
}
method T.main(0) {
    iconst 1
    iconst 7
    invokestatic T.fun
    pop
    return
}
entry T.main
`

func diamond(t *testing.T) (*bytecode.Program, *bytecode.Method) {
	t.Helper()
	p := bytecode.MustAssemble(diamondSrc)
	return p, p.MethodByName("T.fun")
}

func TestBuildBlocks(t *testing.T) {
	_, m := diamond(t)
	g := Build(m)
	// Blocks: [0,2) cond, [2,7) then+goto, [7,11) else, [11,13) join.
	if len(g.Blocks) != 4 {
		t.Fatalf("got %d blocks: %+v", len(g.Blocks), g.Blocks)
	}
	wantStarts := []int32{0, 2, 7, 11}
	for i, b := range g.Blocks {
		if b.Start != wantStarts[i] {
			t.Errorf("block %d starts at %d, want %d", i, b.Start, wantStarts[i])
		}
	}
	// Every instruction belongs to exactly one block covering it.
	for pc := range m.Code {
		b := g.Blocks[g.BlockOf[pc]]
		if int32(pc) < b.Start || int32(pc) >= b.End {
			t.Errorf("BlockOf[%d] = block [%d,%d)", pc, b.Start, b.End)
		}
	}
}

func TestBuildEdges(t *testing.T) {
	_, m := diamond(t)
	g := Build(m)
	kinds := map[EdgeKind]int{}
	for _, e := range g.Edges {
		kinds[e.Kind]++
	}
	if kinds[EdgeTaken] != 1 || kinds[EdgeFallthrough] != 2 || kinds[EdgeJump] != 1 {
		t.Errorf("edge kinds: %v", kinds)
	}
}

func TestBuildSwitchEdges(t *testing.T) {
	src := `
method T.m(1) returns int {
    iload 0
    tableswitch 5 default=Ld [La Lb]
La:
    iconst 1
    ireturn
Lb:
    iconst 2
    ireturn
Ld:
    iconst 3
    ireturn
}
entry T.m
`
	// entry needs 0 args; wrap differently
	src = src[:len(src)-len("entry T.m\n")] + `
method T.main(0) {
    iconst 0
    invokestatic T.m
    pop
    return
}
entry T.main
`
	p := bytecode.MustAssemble(src)
	g := Build(p.MethodByName("T.m"))
	var caseArgs []int32
	for _, e := range g.Edges {
		if e.Kind == EdgeSwitch {
			caseArgs = append(caseArgs, e.Arg)
		}
	}
	if len(caseArgs) != 3 {
		t.Fatalf("switch edges: %v", caseArgs)
	}
	seen := map[int32]bool{}
	for _, a := range caseArgs {
		seen[a] = true
	}
	if !seen[5] || !seen[6] || !seen[SwitchDefault] {
		t.Errorf("switch case keys wrong: %v", caseArgs)
	}
}

func TestBuildThrowEdges(t *testing.T) {
	src := `
method T.m(1) returns int {
Ltry:
    iconst 10
    iload 0
    idiv
    ireturn
Lcatch:
    ireturn
    handler Ltry Lcatch Lcatch any
}
method T.main(0) {
    iconst 2
    invokestatic T.m
    pop
    return
}
entry T.main
`
	p := bytecode.MustAssemble(src)
	g := Build(p.MethodByName("T.m"))
	throw := 0
	for _, e := range g.Edges {
		if e.Kind == EdgeThrow {
			throw++
		}
	}
	if throw != 1 {
		t.Errorf("throw edges = %d, want 1", throw)
	}
}

func TestReversePostorderCoversAll(t *testing.T) {
	_, m := diamond(t)
	g := Build(m)
	order := ReversePostorder(g)
	if len(order) != len(g.Blocks) {
		t.Fatalf("order %v misses blocks", order)
	}
	if order[0] != g.EntryBlock() {
		t.Errorf("RPO starts at %d", order[0])
	}
	seen := map[int]bool{}
	for _, b := range order {
		if seen[b] {
			t.Fatalf("duplicate block %d in order", b)
		}
		seen[b] = true
	}
}

func TestDominatorsDiamond(t *testing.T) {
	_, m := diamond(t)
	g := Build(m)
	idom := Dominators(g)
	// Entry dominates everything; the join's idom is the entry block.
	join := g.BlockOf[11]
	if idom[join] != g.EntryBlock() {
		t.Errorf("idom(join) = %d, want entry", idom[join])
	}
	for b := range g.Blocks {
		if !Dominates(idom, g.EntryBlock(), b) {
			t.Errorf("entry should dominate block %d", b)
		}
	}
	then := g.BlockOf[2]
	if Dominates(idom, then, join) {
		t.Error("then-branch must not dominate the join")
	}
}

const loopSrc = `
method T.loop(1) returns int {
    iconst 0
    istore 1
Lhead:
    iload 1
    iload 0
    if_icmpge Ldone
    iinc 1 1
    goto Lhead
Ldone:
    iload 1
    ireturn
}
method T.main(0) {
    iconst 3
    invokestatic T.loop
    pop
    return
}
entry T.main
`

func TestBackEdges(t *testing.T) {
	p := bytecode.MustAssemble(loopSrc)
	g := Build(p.MethodByName("T.loop"))
	head := g.BlockOf[2]
	if be := BackEdges(g); len(be) != 1 || be[0].To != head {
		t.Errorf("backedges %v", be)
	}
}

func TestReachable(t *testing.T) {
	// Code after an unconditional return is unreachable.
	src := `
method T.m(0) {
    return
    nop
    return
}
entry T.m
`
	p := bytecode.MustAssemble(src)
	g := Build(p.Methods[0])
	reach := Reachable(g)
	if !reach[0] || reach[1] {
		t.Errorf("reachability wrong: %v", reach)
	}
}
