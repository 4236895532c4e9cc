package cfg

import (
	"testing"
	"testing/quick"

	"jportal/internal/bytecode"
)

const icfgSrc = `
table t0 = T.cb1 T.cb2

method T.cb1(1) returns int {
    iload 0
    ireturn
}

method T.cb2(1) returns int {
    iload 0
    ineg
    ireturn
}

method T.helper(1) returns int {
    iload 0
    iconst 1
    iadd
    ireturn
}

method T.main(0) {
    iconst 5
    invokestatic T.helper
    iconst 0
    invokedyn t0
    pop
    return
}
entry T.main
`

func TestICFGNodeLocationRoundTrip(t *testing.T) {
	p := bytecode.MustAssemble(icfgSrc)
	g := BuildICFG(p, DefaultOptions())
	total := 0
	for _, m := range p.Methods {
		for pc := range m.Code {
			n := g.Node(m.ID, int32(pc))
			mid, gpc := g.Location(n)
			if mid != m.ID || gpc != int32(pc) {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", m.ID, pc, n, mid, gpc)
			}
			if g.Instr(n) != &m.Code[pc] {
				t.Fatalf("Instr(%d) wrong", n)
			}
			total++
		}
	}
	if g.NumNodes() != total {
		t.Errorf("NumNodes = %d, want %d", g.NumNodes(), total)
	}
}

func TestICFGLocationQuick(t *testing.T) {
	p := bytecode.MustAssemble(icfgSrc)
	g := BuildICFG(p, DefaultOptions())
	f := func(raw uint16) bool {
		n := NodeID(int(raw) % g.NumNodes())
		mid, pc := g.Location(n)
		return g.Node(mid, pc) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestICFGCallAndReturnEdges(t *testing.T) {
	p := bytecode.MustAssemble(icfgSrc)
	g := BuildICFG(p, DefaultOptions())
	main := p.MethodByName("T.main")
	helper := p.MethodByName("T.helper")

	callNode := g.Node(main.ID, 1) // invokestatic T.helper
	var callTargets []NodeID
	for _, e := range g.Succs[callNode] {
		if e.Kind == EdgeCall {
			callTargets = append(callTargets, e.To)
		}
	}
	if len(callTargets) != 1 || callTargets[0] != g.Entry(helper.ID) {
		t.Errorf("call edges: %v", callTargets)
	}

	// helper's ireturn flows back to main@2 (after the call).
	retNode := g.Node(helper.ID, 3)
	found := false
	for _, e := range g.Succs[retNode] {
		if e.Kind == EdgeReturn && e.To == g.Node(main.ID, 2) {
			found = true
		}
	}
	if !found {
		t.Error("return edge to call continuation missing")
	}
}

func TestICFGDynCallEdges(t *testing.T) {
	p := bytecode.MustAssemble(icfgSrc)
	main := p.MethodByName("T.main")

	resolved := BuildICFG(p, Options{ResolveDynCalls: true})
	dynNode := resolved.Node(main.ID, 3)
	calls := 0
	for _, e := range resolved.Succs[dynNode] {
		if e.Kind == EdgeCall {
			calls++
		}
	}
	if calls != 2 {
		t.Errorf("resolved dyn call edges = %d, want 2", calls)
	}

	opaque := BuildICFG(p, Options{ResolveDynCalls: false})
	dynNode = opaque.Node(main.ID, 3)
	for _, e := range opaque.Succs[dynNode] {
		if e.Kind == EdgeCall {
			t.Error("opaque ICFG should have no dyn call edges")
		}
	}
	// The callbacks then have no recorded call sites.
	cb1 := p.MethodByName("T.cb1")
	if len(opaque.CallSitesOf[cb1.ID]) != 0 {
		t.Error("opaque ICFG should not record dyn call sites")
	}
}

func TestICFGCondBranchEdgeKinds(t *testing.T) {
	src := `
method T.m(1) returns int {
    iload 0
    ifeq Lz
    iconst 1
    ireturn
Lz:
    iconst 0
    ireturn
}
method T.main(0) {
    iconst 1
    invokestatic T.m
    pop
    return
}
entry T.main
`
	p := bytecode.MustAssemble(src)
	g := BuildICFG(p, DefaultOptions())
	m := p.MethodByName("T.m")
	n := g.Node(m.ID, 1)
	var taken, fall NodeID = NoNode, NoNode
	for _, e := range g.Succs[n] {
		switch e.Kind {
		case EdgeTaken:
			taken = e.To
		case EdgeFallthrough:
			fall = e.To
		}
	}
	if taken != g.Node(m.ID, 4) || fall != g.Node(m.ID, 2) {
		t.Errorf("branch edges: taken=%d fall=%d", taken, fall)
	}
}

func TestICFGPredsMirrorSuccs(t *testing.T) {
	p := bytecode.MustAssemble(icfgSrc)
	g := BuildICFG(p, DefaultOptions())
	fwd := 0
	for n := 0; n < g.NumNodes(); n++ {
		fwd += len(g.Succs[n])
	}
	bwd := 0
	for n := 0; n < g.NumNodes(); n++ {
		bwd += len(g.Preds[n])
	}
	if fwd != bwd {
		t.Errorf("succ edges %d != pred edges %d", fwd, bwd)
	}
	// Spot check: every successor edge has a matching predecessor entry.
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		for _, e := range g.Succs[n] {
			ok := false
			for _, pe := range g.Preds[e.To] {
				if pe.To == n && pe.Kind == e.Kind {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("edge %d->%d (%v) has no pred mirror", n, e.To, e.Kind)
			}
		}
	}
}
