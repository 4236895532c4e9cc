package cfg

// Dominators computes the immediate dominator of every block in g using the
// simple iterative dataflow algorithm (Cooper, Harvey, Kennedy). The entry
// block dominates itself; unreachable blocks get idom -1.
func Dominators(g *CFG) []int {
	n := len(g.Blocks)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	order := ReversePostorder(g)
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range order {
		rpoNum[b] = i
	}
	idom[g.EntryBlock()] = g.EntryBlock()

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == g.EntryBlock() {
				continue
			}
			newIdom := -1
			for _, e := range g.Preds[b] {
				p := e.From
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether block a dominates block b under idom.
func Dominates(idom []int, a, b int) bool {
	if idom[b] == -1 {
		return false
	}
	for {
		if b == a {
			return true
		}
		if b == idom[b] {
			return false
		}
		b = idom[b]
	}
}

// ReversePostorder returns the block IDs of g in reverse postorder from the
// entry. Unreachable blocks are appended at the end in ID order so that every
// block appears exactly once.
func ReversePostorder(g *CFG) []int {
	n := len(g.Blocks)
	seen := make([]bool, n)
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, e := range g.Succs[b] {
			if !seen[e.To] {
				dfs(e.To)
			}
		}
		post = append(post, b)
	}
	dfs(g.EntryBlock())
	out := make([]int, 0, n)
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for b := 0; b < n; b++ {
		if !seen[b] {
			out = append(out, b)
		}
	}
	return out
}

// BackEdges returns the back edges of g (edges whose target dominates their
// source).
func BackEdges(g *CFG) []BlockEdge {
	idom := Dominators(g)
	var out []BlockEdge
	for _, e := range g.Edges {
		if Dominates(idom, e.To, e.From) {
			out = append(out, e)
		}
	}
	return out
}

// Reachable returns the set of blocks reachable from the entry.
func Reachable(g *CFG) []bool {
	seen := make([]bool, len(g.Blocks))
	stack := []int{g.EntryBlock()}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		for _, e := range g.Succs[b] {
			stack = append(stack, e.To)
		}
	}
	return seen
}
