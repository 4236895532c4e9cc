package baselines

import (
	"sort"
	"sync"

	"jportal/internal/ballarus"
	"jportal/internal/bytecode"
	"jportal/internal/cfg"
)

// Registry maps probe IDs to actions; it implements the VM's ProbeHandler.
type Registry struct {
	mu      sync.Mutex
	actions []func(tid int)
}

// Add registers an action and returns its probe ID.
func (r *Registry) Add(f func(tid int)) int32 {
	r.actions = append(r.actions, f)
	return int32(len(r.actions) - 1)
}

// Handle dispatches a probe firing (vm.ProbeHandler signature).
func (r *Registry) Handle(tid int, probe int32) {
	r.actions[probe](tid)
}

// --- Statement coverage profiling (paper baseline SC, [24]) ---

// CoverageProfiler records which basic blocks executed.
type CoverageProfiler struct {
	Registry Registry
	// Covered[mid][block] reports execution.
	Covered map[bytecode.MethodID][]bool
	// Events counts probe firings (for overhead accounting).
	Events uint64
}

// ProbeCost is the per-firing cycle cost the paper-equivalent ASM
// instrumentation would incur for each technique (static call into the
// profiling class, counter publication).
const (
	CoverageProbeCost = 120
	PathProbeCost     = 160
	FlowProbeCost     = 5000
	HotProbeCost      = 300
)

// InstrumentCoverage builds the SC-instrumented program.
func InstrumentCoverage(prog *bytecode.Program) (*bytecode.Program, *CoverageProfiler, error) {
	p := &CoverageProfiler{Covered: make(map[bytecode.MethodID][]bool)}
	instrumented, err := InstrumentProgram(prog, func(m *bytecode.Method) (*bytecode.Method, error) {
		g := cfg.Build(m)
		covered := make([]bool, len(g.Blocks))
		p.Covered[m.ID] = covered
		plan := newPlan()
		for _, b := range g.Blocks {
			blk := b
			id := p.Registry.Add(func(int) {
				p.Events++
				covered[blk.ID] = true
			})
			plan.atAll(blk.Start, id)
		}
		return rewrite(m, plan)
	})
	if err != nil {
		return nil, nil, err
	}
	return instrumented, p, nil
}

// CoveredBlocks returns (covered, total) over all methods.
func (p *CoverageProfiler) CoveredBlocks() (int, int) {
	cov, tot := 0, 0
	for _, blocks := range p.Covered {
		for _, c := range blocks {
			tot++
			if c {
				cov++
			}
		}
	}
	return cov, tot
}

// --- Path frequency profiling (paper baseline PF, [25]) ---

// PathProfiler holds Ball-Larus path counters.
type PathProfiler struct {
	Registry Registry
	// Counts[mid][pathID] is the path frequency; methods that fell back
	// to edge profiling appear in EdgeCounts instead.
	Counts     map[bytecode.MethodID]map[int64]uint64
	EdgeCounts map[bytecode.MethodID]map[ballarus.EdgeKey]uint64
	Numberings map[bytecode.MethodID]*ballarus.Numbering
	Events     uint64

	// regs is the per-thread stack of (method, path register).
	regs map[int][]pathReg
}

type pathReg struct {
	mid bytecode.MethodID
	r   int64
}

// InstrumentPaths builds the PF-instrumented program.
func InstrumentPaths(prog *bytecode.Program) (*bytecode.Program, *PathProfiler, error) {
	p := &PathProfiler{
		Counts:     make(map[bytecode.MethodID]map[int64]uint64),
		EdgeCounts: make(map[bytecode.MethodID]map[ballarus.EdgeKey]uint64),
		Numberings: make(map[bytecode.MethodID]*ballarus.Numbering),
		regs:       make(map[int][]pathReg),
	}
	instrumented, err := InstrumentProgram(prog, func(m *bytecode.Method) (*bytecode.Method, error) {
		num, err := ballarus.Number(m)
		if err != nil {
			// Path explosion: fall back to edge profiling for this
			// method, as production BL implementations do.
			return instrumentEdges(p, m)
		}
		p.Numberings[m.ID] = num
		counts := make(map[int64]uint64)
		p.Counts[m.ID] = counts
		mid := m.ID
		plan := newPlan()

		// Entry probe: push a fresh path register. A fall-only slot at
		// pc 0 executes exactly once per invocation (loop branches back
		// to pc 0 land after it).
		entryID := p.Registry.Add(func(tid int) {
			p.Events++
			p.regs[tid] = append(p.regs[tid], pathReg{mid: mid})
		})
		plan.atFall(0, entryID)

		// Edge increments.
		for _, inc := range num.Increments {
			inc := inc
			var id int32
			if inc.Backedge {
				id = p.Registry.Add(func(tid int) {
					p.Events++
					if top := p.top(tid, mid); top != nil {
						counts[top.r+inc.Add]++
						top.r = inc.Reset
					}
				})
			} else {
				id = p.Registry.Add(func(tid int) {
					p.Events++
					if top := p.top(tid, mid); top != nil {
						top.r += inc.Add
					}
				})
			}
			addEdgeProbe(plan, num.G, inc.Edge, id)
		}

		// Exit probes: count the completed path and pop.
		exitID := p.Registry.Add(func(tid int) {
			p.Events++
			if top := p.top(tid, mid); top != nil {
				counts[top.r]++
				p.pop(tid, mid)
			}
		})
		for pc := int32(0); pc < int32(len(m.Code)); pc++ {
			if m.Code[pc].Op.IsReturn() {
				plan.atAll(pc, exitID)
			}
		}
		return rewrite(m, plan)
	})
	if err != nil {
		return nil, nil, err
	}
	return instrumented, p, nil
}

// top returns the active register for mid, unwinding entries leaked by
// exceptional returns.
func (p *PathProfiler) top(tid int, mid bytecode.MethodID) *pathReg {
	s := p.regs[tid]
	for len(s) > 0 && s[len(s)-1].mid != mid {
		s = s[:len(s)-1]
	}
	p.regs[tid] = s
	if len(s) == 0 {
		return nil
	}
	return &s[len(s)-1]
}

func (p *PathProfiler) pop(tid int, mid bytecode.MethodID) {
	s := p.regs[tid]
	if len(s) > 0 && s[len(s)-1].mid == mid {
		p.regs[tid] = s[:len(s)-1]
	}
}

func instrumentEdges(p *PathProfiler, m *bytecode.Method) (*bytecode.Method, error) {
	g := cfg.Build(m)
	counts := make(map[ballarus.EdgeKey]uint64)
	p.EdgeCounts[m.ID] = counts
	plan := newPlan()
	for _, e := range g.Edges {
		if e.Kind == cfg.EdgeThrow {
			continue
		}
		key := ballarus.EdgeKey{From: e.From, To: e.To, Kind: e.Kind, Arg: e.Arg}
		id := p.Registry.Add(func(int) {
			p.Events++
			counts[key]++
		})
		addEdgeProbe(plan, g, key, id)
	}
	return rewrite(m, plan)
}

// addEdgeProbe places a probe on the given block edge: fallthrough edges
// use a fall-only slot at the target; branch edges use a trampoline.
func addEdgeProbe(plan *probePlan, g *cfg.CFG, e ballarus.EdgeKey, id int32) {
	src := g.Blocks[e.From]
	switch e.Kind {
	case cfg.EdgeFallthrough:
		plan.atFall(g.Blocks[e.To].Start, id)
	case cfg.EdgeJump, cfg.EdgeTaken:
		plan.onEdge(src.Last(), -1, id)
	case cfg.EdgeSwitch:
		ins := &g.Method.Code[src.Last()]
		if e.Arg == cfg.SwitchDefault {
			plan.onEdge(src.Last(), -2, id)
		} else {
			plan.onEdge(src.Last(), e.Arg-ins.A, id)
		}
	}
}

// --- Control-flow tracing (paper baseline CF, [24]) ---

// FlowEvent is one logged control-flow record.
type FlowEvent struct {
	Thread int
	Method bytecode.MethodID
	Block  int32
}

// FlowProfiler logs every executed basic block, the instrumentation-based
// equivalent of JPortal's end-to-end control-flow trace. Its event log is
// the "TS" the paper reports for the baseline in Table 5.
type FlowProfiler struct {
	Registry Registry
	Events   []FlowEvent
	// BlockCode maps (mid, block) to the instruction range, for replay.
	blocks map[bytecode.MethodID][]cfg.Block
}

// InstrumentFlow builds the CF-instrumented program.
func InstrumentFlow(prog *bytecode.Program) (*bytecode.Program, *FlowProfiler, error) {
	p := &FlowProfiler{blocks: make(map[bytecode.MethodID][]cfg.Block)}
	instrumented, err := InstrumentProgram(prog, func(m *bytecode.Method) (*bytecode.Method, error) {
		g := cfg.Build(m)
		bs := make([]cfg.Block, len(g.Blocks))
		for i, b := range g.Blocks {
			bs[i] = *b
		}
		p.blocks[m.ID] = bs
		plan := newPlan()
		mid := m.ID
		for _, b := range g.Blocks {
			blk := int32(b.ID)
			id := p.Registry.Add(func(tid int) {
				p.Events = append(p.Events, FlowEvent{Thread: tid, Method: mid, Block: blk})
			})
			plan.atAll(b.Start, id)
		}
		return rewrite(m, plan)
	})
	if err != nil {
		return nil, nil, err
	}
	return instrumented, p, nil
}

// TraceBytes is the event log's size: the paper's ASM-based tracer writes a
// compact record per block event.
func (p *FlowProfiler) TraceBytes() uint64 { return uint64(len(p.Events)) * 8 }

// Replay expands the block events of one thread into the executed
// instruction stream (the baseline's "decoding" whose time Table 5
// reports).
func (p *FlowProfiler) Replay(thread int) []int64 {
	var out []int64
	for _, ev := range p.Events {
		if ev.Thread != thread {
			continue
		}
		b := p.blocks[ev.Method][ev.Block]
		for pc := b.Start; pc < b.End; pc++ {
			out = append(out, int64(ev.Method)<<32|int64(pc))
		}
	}
	return out
}

// --- Hot-method instrumentation profiling (paper baseline HM) ---

// HotProfiler counts method entries/exits with timestamped events.
type HotProfiler struct {
	Registry Registry
	Calls    []int64
	Events   uint64
}

// InstrumentHot builds the HM-instrumented program.
func InstrumentHot(prog *bytecode.Program) (*bytecode.Program, *HotProfiler, error) {
	p := &HotProfiler{Calls: make([]int64, len(prog.Methods))}
	instrumented, err := InstrumentProgram(prog, func(m *bytecode.Method) (*bytecode.Method, error) {
		plan := newPlan()
		mid := m.ID
		enter := p.Registry.Add(func(int) {
			p.Events++
			p.Calls[mid]++
		})
		exit := p.Registry.Add(func(int) { p.Events++ })
		plan.atFall(0, enter)
		for pc := int32(0); pc < int32(len(m.Code)); pc++ {
			if m.Code[pc].Op.IsReturn() {
				plan.atAll(pc, exit)
			}
		}
		return rewrite(m, plan)
	})
	if err != nil {
		return nil, nil, err
	}
	return instrumented, p, nil
}

// Top returns the methods ranked by entry count.
func (p *HotProfiler) Top(n int) []int32 {
	return rankTop(p.Calls, n)
}

func rankTop(counts []int64, n int) []int32 {
	idx := make([]int32, len(counts))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return counts[idx[a]] > counts[idx[b]] })
	out := make([]int32, 0, n)
	for _, i := range idx {
		if counts[i] == 0 || len(out) == n {
			break
		}
		out = append(out, i)
	}
	return out
}
