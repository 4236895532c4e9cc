package profile

import (
	"reflect"
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/core"
)

const profSrc = `
method T.leaf(1) returns int {
    iload 0
    iconst 1
    iadd
    ireturn
}
method T.main(0) {
    iconst 3
    invokestatic T.leaf
    pop
    return
}
entry T.main
`

// steps builds a step stream from (mid, pc) pairs.
func mkSteps(pairs ...[2]int32) []core.Step {
	out := make([]core.Step, len(pairs))
	for i, p := range pairs {
		out[i] = core.Step{Method: bytecode.MethodID(p[0]), PC: p[1]}
	}
	return out
}

// threads wraps step streams as the per-thread results of an analysis,
// thread i carrying streams[i].
func threads(streams ...[]core.Step) []*core.ThreadResult {
	out := make([]*core.ThreadResult, len(streams))
	for i, s := range streams {
		out[i] = &core.ThreadResult{Thread: i, Steps: s}
	}
	return out
}

func TestCoverage(t *testing.T) {
	p := bytecode.MustAssemble(profSrc)
	leaf := p.MethodByName("T.leaf")
	main := p.MethodByName("T.main")
	steps := mkSteps(
		[2]int32{int32(main.ID), 0}, [2]int32{int32(main.ID), 1},
		[2]int32{int32(leaf.ID), 0}, [2]int32{int32(leaf.ID), 1},
		[2]int32{int32(leaf.ID), 2}, [2]int32{int32(leaf.ID), 3},
		[2]int32{int32(main.ID), 2}, [2]int32{int32(main.ID), 3},
	)
	cov := ComputeCoverage(p, threads(steps))
	if cov.CoveredInstrs != 8 || cov.TotalInstrs != 8 {
		t.Errorf("coverage %d/%d", cov.CoveredInstrs, cov.TotalInstrs)
	}
	if cov.Ratio() != 1.0 || cov.CoveredMethods != 2 {
		t.Errorf("ratio %f methods %d", cov.Ratio(), cov.CoveredMethods)
	}
	// Duplicate steps do not double count.
	cov2 := ComputeCoverage(p, threads(steps, steps))
	if cov2.CoveredInstrs != 8 {
		t.Error("duplicates double-counted")
	}
}

// TestCoverageMerge: merging per-batch accumulators gives what one
// accumulator fed every batch holds.
func TestCoverageMerge(t *testing.T) {
	p := bytecode.MustAssemble(profSrc)
	leaf := p.MethodByName("T.leaf")
	main := p.MethodByName("T.main")
	a := mkSteps([2]int32{int32(main.ID), 0}, [2]int32{int32(leaf.ID), 1}, [2]int32{int32(leaf.ID), 2})
	b := mkSteps([2]int32{int32(leaf.ID), 2}, [2]int32{int32(main.ID), 3})
	want := NewCoverage(p)
	want.Add(a)
	want.Add(b)
	got := NewCoverage(p)
	for _, steps := range [][]core.Step{a, b} {
		c := NewCoverage(p)
		c.Add(steps)
		got.Merge(c)
	}
	got.Seal()
	want.Seal()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged %+v, want %+v", got, want)
	}
	if got.CoveredInstrs != 4 {
		t.Errorf("covered %d, want 4", got.CoveredInstrs)
	}
}

func TestEdgeProfile(t *testing.T) {
	p := bytecode.MustAssemble(profSrc)
	leaf := p.MethodByName("T.leaf")
	steps := mkSteps(
		[2]int32{int32(leaf.ID), 0}, [2]int32{int32(leaf.ID), 1},
		[2]int32{int32(leaf.ID), 0}, [2]int32{int32(leaf.ID), 1},
	)
	edges := EdgeProfile(p, threads(steps))
	// Edges: 0->1 twice, 1->0 once.
	if len(edges) != 2 {
		t.Fatalf("edges: %+v", edges)
	}
	if edges[0].From != 0 || edges[0].To != 1 || edges[0].Count != 2 {
		t.Errorf("hottest edge: %+v", edges[0])
	}
}

func TestHotMethods(t *testing.T) {
	p := bytecode.MustAssemble(profSrc)
	leaf := p.MethodByName("T.leaf")
	main := p.MethodByName("T.main")
	var steps []core.Step
	for i := 0; i < 10; i++ {
		steps = append(steps, core.Step{Method: leaf.ID, PC: 0})
	}
	steps = append(steps, core.Step{Method: main.ID, PC: 0})
	hot := HotMethods(p, threads(steps), 10)
	if len(hot) != 2 || hot[0] != int32(leaf.ID) {
		t.Errorf("hot: %v", hot)
	}
	if got := HotMethods(p, threads(steps), 1); len(got) != 1 {
		t.Errorf("top-1: %v", got)
	}
}

func TestPathProfileFromSteps(t *testing.T) {
	p := bytecode.MustAssemble(profSrc)
	leaf := p.MethodByName("T.leaf")
	// Two complete straight-line executions of leaf.
	var steps []core.Step
	for r := 0; r < 2; r++ {
		for pc := int32(0); pc < int32(len(leaf.Code)); pc++ {
			steps = append(steps, core.Step{Method: leaf.ID, PC: pc})
		}
	}
	pp := ComputePathProfile(p, threads(steps))
	counts := pp.Counts[leaf.ID]
	if counts == nil {
		t.Fatal("no counts for leaf")
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != 2 || len(counts) != 1 {
		t.Errorf("paths: %v", counts)
	}
}

func TestCallTree(t *testing.T) {
	p := bytecode.MustAssemble(profSrc)
	leaf := p.MethodByName("T.leaf")
	main := p.MethodByName("T.main")
	steps := mkSteps(
		[2]int32{int32(main.ID), 0},
		[2]int32{int32(main.ID), 1}, // invokestatic
		[2]int32{int32(leaf.ID), 0},
		[2]int32{int32(leaf.ID), 1},
		[2]int32{int32(leaf.ID), 2},
		[2]int32{int32(leaf.ID), 3}, // ireturn
		[2]int32{int32(main.ID), 2},
		[2]int32{int32(main.ID), 3},
	)
	tree := CallTree(p, threads(steps))
	if tree.TotalCalls() != 1 {
		t.Errorf("total calls %d", tree.TotalCalls())
	}
	child := tree.Children[leaf.ID]
	if child == nil || child.Count != 1 {
		t.Fatalf("leaf child: %+v", tree.Children)
	}
	if d := tree.Depth(); d != 2 {
		t.Errorf("depth %d", d)
	}
}

const unwindSrc = `
method T.rec(1) returns int {
    iload 0
    ifle Lbase
    iload 0
    iconst 1
    isub
    invokestatic T.rec
    ireturn
Lbase:
    iconst 0
    ireturn
}
method T.thrower(0) returns int {
    iconst 7
    athrow
}
method T.mid(0) returns int {
    invokestatic T.thrower
    ireturn
}
method T.outer(0) returns int {
Ltry:
    invokestatic T.mid
Lend:
    ireturn
Lcatch:
    pop
    iconst 0
    invokestatic T.rec
    ireturn
    handler Ltry Lend Lcatch any
}
method T.main(0) {
    iconst 1
    invokestatic T.rec
    pop
    invokestatic T.outer
    pop
    return
}
entry T.main
`

// TestCallTreeSelfRecursion: rec(1) calls rec(0). The inner call lands at
// pc 0 of the method already on top and must push its own frame, so each
// ireturn pops one rec.
func TestCallTreeSelfRecursion(t *testing.T) {
	p := bytecode.MustAssemble(unwindSrc)
	rec, main := int32(p.MethodByName("T.rec").ID), int32(p.MethodByName("T.main").ID)
	steps := mkSteps(
		[2]int32{main, 0}, [2]int32{main, 1}, // iconst 1; invokestatic T.rec
		[2]int32{rec, 0}, [2]int32{rec, 1}, [2]int32{rec, 2}, [2]int32{rec, 3},
		[2]int32{rec, 4}, [2]int32{rec, 5}, // invokestatic T.rec
		[2]int32{rec, 0}, [2]int32{rec, 1}, [2]int32{rec, 7}, [2]int32{rec, 8}, // inner ireturn
		[2]int32{rec, 6}, // outer ireturn
		[2]int32{main, 2},
	)
	tree := CallTree(p, threads(steps))
	outer := tree.Children[bytecode.MethodID(rec)]
	if outer == nil || outer.Count != 1 {
		t.Fatalf("root children %+v, want one call of T.rec", tree.Children)
	}
	if inner := outer.Children[bytecode.MethodID(rec)]; inner == nil || inner.Count != 1 {
		t.Fatalf("T.rec children %+v, want its recursive call", outer.Children)
	}
	if tree.TotalCalls() != 2 || tree.Depth() != 3 {
		t.Errorf("call tree: %d calls, depth %d; want 2 calls, depth 3", tree.TotalCalls(), tree.Depth())
	}
}

// TestCallTreeUnwindsThrow: outer calls mid, mid calls thrower, and
// thrower's athrow is caught in outer, two frames up. Neither callee
// returns, so the first step back in outer must pop both frames: the call
// of rec the handler makes is outer's, not thrower's.
func TestCallTreeUnwindsThrow(t *testing.T) {
	p := bytecode.MustAssemble(unwindSrc)
	id := func(name string) bytecode.MethodID { return p.MethodByName(name).ID }
	rec, thrower, mid, outer, main := id("T.rec"), id("T.thrower"), id("T.mid"), id("T.outer"), id("T.main")
	steps := []core.Step{
		{Method: main, PC: 3},                              // invokestatic T.outer
		{Method: outer, PC: 0},                             // invokestatic T.mid
		{Method: mid, PC: 0},                               // invokestatic T.thrower
		{Method: thrower, PC: 0}, {Method: thrower, PC: 1}, // athrow
		{Method: outer, PC: 2}, {Method: outer, PC: 3}, {Method: outer, PC: 4}, // handler: invokestatic T.rec
		{Method: rec, PC: 0}, {Method: rec, PC: 1}, {Method: rec, PC: 7}, {Method: rec, PC: 8},
		{Method: outer, PC: 5}, // ireturn
		{Method: main, PC: 4}, {Method: main, PC: 5},
	}
	tree := CallTree(p, threads(steps))
	o := tree.Children[outer]
	if o == nil || len(tree.Children) != 1 {
		t.Fatalf("root children %+v, want only T.outer", tree.Children)
	}
	if c := o.Children[rec]; c == nil || c.Count != 1 {
		t.Errorf("T.outer children %+v, want T.rec called by the handler", o.Children)
	}
	if m := o.Children[mid]; m == nil || m.Children[thrower] == nil || len(m.Children[thrower].Children) != 0 {
		t.Errorf("T.outer children %+v, want mid -> thrower with nothing under thrower", o.Children)
	}
	if tree.TotalCalls() != 4 || tree.Depth() != 4 {
		t.Errorf("call tree: %d calls, depth %d; want 4 calls, depth 4", tree.TotalCalls(), tree.Depth())
	}
}

func TestTimeProfile(t *testing.T) {
	p := bytecode.MustAssemble(profSrc)
	leaf := p.MethodByName("T.leaf")
	main := p.MethodByName("T.main")
	steps := []core.Step{
		{Method: main.ID, PC: 0, TSC: 0},
		{Method: main.ID, PC: 1, TSC: 10},
		{Method: leaf.ID, PC: 0, TSC: 20},
		{Method: leaf.ID, PC: 1, TSC: 120}, // 100 cycles inside leaf
		{Method: main.ID, PC: 2, TSC: 130},
		{Method: main.ID, PC: 3, TSC: 999_999}, // beyond maxGap: dropped
	}
	tp := ComputeTimeProfile(p, threads(steps), 1000)
	// main: (10-0) + (20-10 charged to main@1) + (130-120 charged to leaf)...
	// charging is to the method executing BEFORE each gap:
	// main: 0->10 (10), 10->20 (10); leaf: 20->120 (100), 120->130 (10).
	if tp.Cycles[main.ID] != 20 {
		t.Errorf("main cycles = %d, want 20", tp.Cycles[main.ID])
	}
	if tp.Cycles[leaf.ID] != 110 {
		t.Errorf("leaf cycles = %d, want 110", tp.Cycles[leaf.ID])
	}
	if tp.Total != 130 {
		t.Errorf("total = %d", tp.Total)
	}
	top := tp.Top(5)
	if len(top) != 2 || top[0] != int32(leaf.ID) {
		t.Errorf("top: %v", top)
	}
}

func TestTimeProfileDefaultsAndEmpty(t *testing.T) {
	p := bytecode.MustAssemble(profSrc)
	tp := ComputeTimeProfile(p, nil, 0)
	if tp.Total != 0 || len(tp.Top(3)) != 0 {
		t.Error("empty profile not empty")
	}
}

const nestSrc = `
method T.c(0) {
    nop
    return
}
method T.b(0) {
    nop
    invokestatic T.c
    nop
    return
}
method T.a(0) {
    nop
    invokestatic T.b
    return
}
entry T.a
`

// TestProfilesKeepThreadsApart feeds a two-thread analysis whose first
// thread ends inside its call of T.b and whose second thread starts in
// T.b and calls T.c. Joined into one stream, the second thread's call
// would nest under the first thread's open frame (depth 3), and the
// boundary would count as an edge b@0 -> b@0, a time gap and one merged
// block run of T.b. Every profile over both threads must instead equal
// the sum of the per-thread profiles, and the call tree must be as deep
// as the deeper thread's tree.
func TestProfilesKeepThreadsApart(t *testing.T) {
	p := bytecode.MustAssemble(nestSrc)
	a, b, c := p.MethodByName("T.a").ID, p.MethodByName("T.b").ID, p.MethodByName("T.c").ID
	stream := func(tsc uint64, steps ...core.Step) []core.Step {
		for i := range steps {
			steps[i].TSC = tsc + uint64(i)*10
		}
		return steps
	}
	t0 := stream(0, core.Step{Method: a, PC: 0}, core.Step{Method: a, PC: 1}, core.Step{Method: b, PC: 0})
	t1 := stream(25, core.Step{Method: b, PC: 0}, core.Step{Method: b, PC: 1},
		core.Step{Method: c, PC: 0}, core.Step{Method: c, PC: 1},
		core.Step{Method: b, PC: 2}, core.Step{Method: b, PC: 3})
	both := threads(t0, t1)
	one := [][]*core.ThreadResult{threads(t0), threads(t1)}

	d0, d1 := CallTree(p, one[0]).Depth(), CallTree(p, one[1]).Depth()
	if d0 != 2 || d1 != 2 {
		t.Fatalf("per-thread depths %d, %d, want 2, 2", d0, d1)
	}
	if tree := CallTree(p, both); tree.Depth() != 2 || tree.TotalCalls() != 2 {
		t.Errorf("call tree: depth %d, %d calls; want depth 2, 2 calls", tree.Depth(), tree.TotalCalls())
	}

	type edge struct {
		m        bytecode.MethodID
		from, to int32
	}
	edges := map[edge]int64{}
	for _, e := range EdgeProfile(p, both) {
		edges[edge{e.Method, e.From, e.To}] += int64(e.Count)
	}
	if n := edges[edge{b, 0, 0}]; n != 0 {
		t.Errorf("edge b@0 -> b@0 counted %d times across the thread boundary", n)
	}
	for _, th := range one {
		for _, e := range EdgeProfile(p, th) {
			edges[edge{e.Method, e.From, e.To}] -= int64(e.Count)
		}
	}
	for k, n := range edges {
		if n != 0 {
			t.Errorf("edge %+v: both-thread count differs from the per-thread sum by %d", k, n)
		}
	}

	tp := ComputeTimeProfile(p, both, 1000)
	if want := ComputeTimeProfile(p, one[0], 1000).Total + ComputeTimeProfile(p, one[1], 1000).Total; tp.Total != want {
		t.Errorf("time total %d, want the per-thread sum %d", tp.Total, want)
	}

	paths := func(th []*core.ThreadResult) (n uint64) {
		for _, cnt := range ComputePathProfile(p, th).Counts[b] {
			n += cnt
		}
		return n
	}
	if got, want := paths(both), paths(one[0])+paths(one[1]); got != want {
		t.Errorf("%d Ball-Larus paths of T.b over both threads, want the per-thread sum %d", got, want)
	}
}
