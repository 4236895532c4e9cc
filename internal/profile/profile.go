// Package profile derives the client-application profiles the paper's
// introduction motivates — statement coverage, path frequencies, control
// flow (edge) profiles, hot-method rankings, and call trees — from the
// control-flow steps JPortal reconstructs.
//
// Every profile takes the analysis's per-thread results. Each thread is
// its own step stream: the profiles that follow the stream (edges, time
// gaps, Ball-Larus block runs, the call stack) start afresh at every thread
// boundary, so the last step of one thread is never joined to the first
// step of the next.
package profile

import (
	"sort"

	"jportal/internal/ballarus"
	"jportal/internal/bytecode"
	"jportal/internal/cfg"
	"jportal/internal/core"
)

// Coverage is a statement-coverage report.
type Coverage struct {
	// Covered[mid][pc] reports whether the instruction executed.
	Covered map[bytecode.MethodID][]bool
	// CoveredInstrs/TotalInstrs aggregate over the program.
	CoveredInstrs, TotalInstrs int
	// CoveredMethods counts methods with any coverage.
	CoveredMethods int
	// byMethod is the dense MethodID-indexed view of Covered (shared
	// backing arrays; see NewCoverage).
	byMethod [][]bool
}

// Ratio returns covered/total instructions.
func (c *Coverage) Ratio() float64 {
	if c.TotalInstrs == 0 {
		return 0
	}
	return float64(c.CoveredInstrs) / float64(c.TotalInstrs)
}

// ComputeCoverage derives statement coverage from every thread's steps.
func ComputeCoverage(prog *bytecode.Program, threads []*core.ThreadResult) *Coverage {
	c := NewCoverage(prog)
	for _, t := range threads {
		c.Add(t.Steps)
	}
	c.Seal()
	return c
}

// NewCoverage starts an incremental coverage accumulator: Add step
// batches (e.g. one thread at a time, avoiding a concatenated copy of
// the whole profile), then Seal to finalise CoveredMethods.
func NewCoverage(prog *bytecode.Program) *Coverage {
	c := &Coverage{Covered: make(map[bytecode.MethodID][]bool, len(prog.Methods))}
	for _, m := range prog.Methods {
		bits := make([]bool, len(m.Code))
		c.Covered[m.ID] = bits
		// byMethod shares the same backing arrays as the Covered map:
		// Add marks through the dense index (MethodIDs are contiguous
		// slice indices, so a map lookup per step is pure overhead) and
		// the exported map reflects every mark.
		for int(m.ID) >= len(c.byMethod) {
			c.byMethod = append(c.byMethod, nil)
		}
		c.byMethod[m.ID] = bits
		c.TotalInstrs += len(m.Code)
	}
	return c
}

// Add folds one batch of steps into the accumulator.
func (c *Coverage) Add(steps []core.Step) {
	for i := range steps {
		s := &steps[i]
		if s.Method < 0 || int(s.Method) >= len(c.byMethod) {
			continue
		}
		cov := c.byMethod[s.Method]
		if int(s.PC) >= len(cov) {
			continue
		}
		if !cov[s.PC] {
			cov[s.PC] = true
			c.CoveredInstrs++
		}
	}
}

// Merge folds o's covered instructions into the accumulator: the union
// of two accumulators is what one accumulator given both step batches
// holds. Both must come from NewCoverage over the same program.
func (c *Coverage) Merge(o *Coverage) {
	for mid, bits := range o.byMethod {
		cov := c.byMethod[mid]
		for pc, b := range bits {
			if b && !cov[pc] {
				cov[pc] = true
				c.CoveredInstrs++
			}
		}
	}
}

// Seal recomputes CoveredMethods after the last Add. Idempotent.
func (c *Coverage) Seal() {
	c.CoveredMethods = 0
	for _, cov := range c.Covered {
		for _, b := range cov {
			if b {
				c.CoveredMethods++
				break
			}
		}
	}
}

// Edge is one intra-method control-flow edge with its frequency.
type Edge struct {
	Method   bytecode.MethodID
	From, To int32
	Count    uint64
}

// EdgeProfile counts intra-method instruction-level edges (the control-flow
// profile).
func EdgeProfile(prog *bytecode.Program, threads []*core.ThreadResult) []Edge {
	type key struct {
		m        bytecode.MethodID
		from, to int32
	}
	counts := make(map[key]uint64)
	for _, t := range threads {
		steps := t.Steps
		for i := 1; i < len(steps); i++ {
			a, b := steps[i-1], steps[i]
			if a.Method != b.Method {
				continue
			}
			counts[key{a.Method, a.PC, b.PC}]++
		}
	}
	out := make([]Edge, 0, len(counts))
	for k, n := range counts {
		out = append(out, Edge{Method: k.m, From: k.from, To: k.to, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Method != out[j].Method {
			return out[i].Method < out[j].Method
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// HotMethods ranks methods by executed-step count (JPortal's hot-method
// report, Table 4).
func HotMethods(prog *bytecode.Program, threads []*core.ThreadResult, n int) []int32 {
	counts := make([]int64, len(prog.Methods))
	for _, t := range threads {
		for _, s := range t.Steps {
			if int(s.Method) < len(counts) && s.Method >= 0 {
				counts[s.Method]++
			}
		}
	}
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

// TimeProfile attributes simulated time to methods using the timestamps
// embedded in the reconstructed steps (the paper's intro: "hardware traces
// contain event timestamps, enabling performance analysis such as detection
// of invocation hot spots"). Each inter-step gap is charged to the method
// executing before it; gaps above maxGap (scheduling pauses, data loss) are
// dropped, and so is the gap between one thread's last step and the next
// thread's first.
type TimeProfile struct {
	// Cycles[mid] is the time attributed to each method.
	Cycles []uint64
	// Total is the attributed sum.
	Total uint64
}

// ComputeTimeProfile derives per-method time from step timestamps.
func ComputeTimeProfile(prog *bytecode.Program, threads []*core.ThreadResult, maxGap uint64) *TimeProfile {
	tp := &TimeProfile{Cycles: make([]uint64, len(prog.Methods))}
	if maxGap == 0 {
		maxGap = 10_000
	}
	for _, t := range threads {
		steps := t.Steps
		for i := 1; i < len(steps); i++ {
			prev, cur := &steps[i-1], &steps[i]
			if cur.TSC <= prev.TSC {
				continue
			}
			d := cur.TSC - prev.TSC
			if d > maxGap {
				continue
			}
			if int(prev.Method) < len(tp.Cycles) && prev.Method >= 0 {
				tp.Cycles[prev.Method] += d
				tp.Total += d
			}
		}
	}
	return tp
}

// Top returns methods ranked by attributed time.
func (tp *TimeProfile) Top(n int) []int32 {
	idx := make([]int32, len(tp.Cycles))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return tp.Cycles[idx[a]] > tp.Cycles[idx[b]] })
	out := make([]int32, 0, n)
	for _, i := range idx {
		if tp.Cycles[i] == 0 || len(out) == n {
			break
		}
		out = append(out, i)
	}
	return out
}

// PathProfile holds Ball-Larus path frequencies derived by replaying
// reconstructed flow through each method's path numbering.
type PathProfile struct {
	// Counts[mid][pathID] = frequency.
	Counts map[bytecode.MethodID]map[int64]uint64
	// Skipped lists methods whose numbering failed (path explosion).
	Skipped []bytecode.MethodID
}

// ComputePathProfile replays every thread's steps through BL numberings.
func ComputePathProfile(prog *bytecode.Program, threads []*core.ThreadResult) *PathProfile {
	p := &PathProfile{Counts: make(map[bytecode.MethodID]map[int64]uint64)}
	nums := make(map[bytecode.MethodID]*ballarus.Numbering)
	graphs := make(map[bytecode.MethodID]*cfg.CFG)
	for _, m := range prog.Methods {
		num, err := ballarus.Number(m)
		if err != nil {
			p.Skipped = append(p.Skipped, m.ID)
			continue
		}
		nums[m.ID] = num
		graphs[m.ID] = num.G
	}
	// Cut each thread's step stream into per-method block runs.
	var curM bytecode.MethodID
	var blocks []int
	flush := func() {
		if curM == bytecode.NoMethod || len(blocks) == 0 {
			blocks = blocks[:0]
			return
		}
		if num := nums[curM]; num != nil {
			counts := p.Counts[curM]
			if counts == nil {
				counts = make(map[int64]uint64)
				p.Counts[curM] = counts
			}
			for _, pid := range num.PathCount(blocks) {
				counts[pid]++
			}
		}
		blocks = blocks[:0]
	}
	for _, t := range threads {
		curM = bytecode.NoMethod
		prevReturn := false
		for _, s := range t.Steps {
			g := graphs[s.Method]
			if g == nil || int(s.PC) >= len(g.BlockOf) {
				flush()
				curM = bytecode.NoMethod
				prevReturn = false
				continue
			}
			if s.Method != curM || (prevReturn && s.PC == 0) {
				// Method change, or re-entry of the same method right
				// after its return (recursion/repeated calls).
				flush()
				curM = s.Method
			}
			b := g.BlockOf[s.PC]
			if len(blocks) == 0 || blocks[len(blocks)-1] != b {
				blocks = append(blocks, b)
			}
			prevReturn = prog.Methods[s.Method].Code[s.PC].Op.IsReturn()
		}
		flush()
	}
	return p
}

// CallNode is a dynamic call-tree node.
type CallNode struct {
	Method   bytecode.MethodID
	Count    uint64
	Children map[bytecode.MethodID]*CallNode
}

func newCallNode(m bytecode.MethodID) *CallNode {
	return &CallNode{Method: m, Children: make(map[bytecode.MethodID]*CallNode)}
}

// CallTree reconstructs the dynamic call tree from steps: entering a method
// at pc 0 right after a call instruction pushes, a self-recursive call
// included; executing a return pops. A step in a method other than the
// top frame's pops to the nearest frame of that method, if there is one:
// an exception unwound the frames above it. Each thread's calls start at
// the root, so frames a thread leaves open never parent another thread's
// calls.
func CallTree(prog *bytecode.Program, threads []*core.ThreadResult) *CallNode {
	root := newCallNode(bytecode.NoMethod)
	for _, t := range threads {
		stack := []*CallNode{root}
		top := func() *CallNode { return stack[len(stack)-1] }
		var prevOp bytecode.Opcode = bytecode.NOP
		for _, s := range t.Steps {
			m := prog.Method(s.Method)
			if m == nil || int(s.PC) >= len(m.Code) {
				continue
			}
			op := m.Code[s.PC].Op
			if s.PC == 0 && prevOp.IsCall() {
				child := top().Children[s.Method]
				if child == nil {
					child = newCallNode(s.Method)
					top().Children[s.Method] = child
				}
				child.Count++
				stack = append(stack, child)
			} else if top().Method != s.Method {
				for i := len(stack) - 2; i > 0; i-- {
					if stack[i].Method == s.Method {
						stack = stack[:i+1]
						break
					}
				}
			}
			if op.IsReturn() && len(stack) > 1 && top().Method == s.Method {
				stack = stack[:len(stack)-1]
			}
			prevOp = op
		}
	}
	return root
}

// Depth returns the call tree's maximum depth.
func (n *CallNode) Depth() int {
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// TotalCalls sums all call counts in the tree.
func (n *CallNode) TotalCalls() uint64 {
	var t uint64 = n.Count
	for _, c := range n.Children {
		t += c.TotalCalls()
	}
	return t
}
