// Hotmethods: the paper's Table 4 scenario on one subject — find the ten
// hottest methods with JPortal's hardware-trace profile and with two
// sampling profilers, and score each against ground truth.
//
//	go run ./examples/hotmethods
package main

import (
	"fmt"
	"log"
	"sort"

	"jportal"
	"jportal/internal/baselines"
	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/metrics"
	"jportal/internal/profile"
	"jportal/internal/vm"
	"jportal/internal/workload"
)

func main() {
	subject := workload.MustLoad("jython", 1.0)
	prog := subject.Program
	const topN = 10

	// Ground truth: the oracle sees every executed instruction.
	truthVM := vm.New(prog, vm.DefaultConfig())
	oracle := jportal.NewOracle(len(subject.Threads))
	truthVM.Listener = oracle
	if _, err := truthVM.Run(subject.Threads); err != nil {
		log.Fatal(err)
	}
	truth := rank(oracle.MethodCounts(len(prog.Methods)), topN)

	// xprof-style timer sampling.
	xp := baselines.NewXprof(120_000)
	xpVM := vm.New(prog, vm.DefaultConfig())
	xpVM.Sampler = xp
	if _, err := xpVM.Run(subject.Threads); err != nil {
		log.Fatal(err)
	}

	// JProfiler-style safepoint-biased sampling.
	jp := baselines.NewJProfiler(120_000)
	jpVM := vm.New(prog, vm.DefaultConfig())
	jpVM.Sampler = jp
	if _, err := jpVM.Run(subject.Threads); err != nil {
		log.Fatal(err)
	}

	// JPortal: reconstruct the full control flow and count instructions.
	run, err := jportal.Run(prog, subject.Threads, jportal.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}
	an, err := jportal.Analyze(prog, run, core.DefaultPipelineConfig())
	if err != nil {
		log.Fatal(err)
	}
	hot := profile.HotMethods(prog, an.Threads, topN)

	fmt.Printf("subject: %s — top-%d hot methods vs ground truth\n\n", subject.Name, topN)
	fmt.Printf("%-4s %-14s %-14s %-14s\n", "#", "truth", "JPortal", "xprof")
	xpTop := xp.Top(topN)
	for i := 0; i < topN && i < len(truth); i++ {
		fmt.Printf("%-4d %-14s %-14s %-14s\n", i+1,
			name(prog, truth, i), name(prog, hot, i), name(prog, xpTop, i))
	}
	fmt.Printf("\ntop-%d intersection with truth: JPortal=%d xprof=%d JProfiler=%d\n",
		topN,
		metrics.TopNIntersection(truth, hot, topN),
		metrics.TopNIntersection(truth, xpTop, topN),
		metrics.TopNIntersection(truth, jp.Top(topN), topN))
}

// rank returns the indices of the topN largest counts, descending.
func rank(counts []int64, topN int) []int32 {
	idx := make([]int32, len(counts))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return counts[idx[a]] > counts[idx[b]] })
	out := make([]int32, 0, topN)
	for _, i := range idx {
		if counts[i] == 0 || len(out) == topN {
			break
		}
		out = append(out, i)
	}
	return out
}

func name(p *bytecode.Program, ranking []int32, i int) string {
	if i >= len(ranking) {
		return "-"
	}
	return p.Methods[ranking[i]].Name
}
