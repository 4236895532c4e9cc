// Coverage: use JPortal's reconstructed control flow as a zero-
// instrumentation statement-coverage tool, and compare its cost against the
// Ball-Larus instrumentation-based coverage baseline (the paper's SC
// comparator).
//
//	go run ./examples/coverage
package main

import (
	"fmt"
	"log"

	"jportal"
	"jportal/internal/baselines"
	"jportal/internal/core"
	"jportal/internal/profile"
	"jportal/internal/vm"
	"jportal/internal/workload"
)

func main() {
	subject := workload.MustLoad("pmd", 0.5)

	// Plain run: the cost baseline.
	plain := vm.New(subject.Program, vm.DefaultConfig())
	plainStats, err := plain.Run(subject.Threads)
	if err != nil {
		log.Fatal(err)
	}

	// JPortal: trace with PT, reconstruct, derive coverage offline.
	run, err := jportal.Run(subject.Program, subject.Threads, jportal.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}
	an, err := jportal.Analyze(subject.Program, run, core.DefaultPipelineConfig())
	if err != nil {
		log.Fatal(err)
	}
	cov := profile.ComputeCoverage(subject.Program, an.Threads)

	// Instrumentation baseline: rewrite the bytecode with probes.
	instrumented, prof, err := baselines.InstrumentCoverage(subject.Program)
	if err != nil {
		log.Fatal(err)
	}
	im := vm.New(instrumented, vm.DefaultConfig())
	im.Probe = prof.Registry.Handle
	im.ProbeActionCost = baselines.CoverageProbeCost
	instrStats, err := im.Run(subject.Threads)
	if err != nil {
		log.Fatal(err)
	}
	covBlocks, totBlocks := prof.CoveredBlocks()

	fmt.Printf("subject: %s (%d methods)\n", subject.Name, len(subject.Program.Methods))
	fmt.Printf("JPortal coverage:        %.1f%% of instructions, %d/%d methods\n",
		cov.Ratio()*100, cov.CoveredMethods, len(subject.Program.Methods))
	fmt.Printf("instrumented coverage:   %d/%d basic blocks\n", covBlocks, totBlocks)
	fmt.Printf("JPortal overhead:        %.2fx\n",
		float64(run.Stats.ActiveCycles)/float64(plainStats.ActiveCycles))
	fmt.Printf("instrumentation overhead: %.2fx\n",
		float64(instrStats.ActiveCycles)/float64(plainStats.ActiveCycles))
}
