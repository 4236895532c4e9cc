// Hotspots: the paper's introduction notes that "hardware traces contain
// event timestamps, enabling performance analysis such as detection of
// invocation hot spots". This example reconstructs a workload's control
// flow and attributes *time* (not just instruction counts) to methods from
// the trace's embedded timestamps, then contrasts the two rankings.
//
//	go run ./examples/hotspots
package main

import (
	"fmt"
	"log"

	"jportal"
	"jportal/internal/core"
	"jportal/internal/profile"
	"jportal/internal/workload"
)

func main() {
	subject := workload.MustLoad("batik", 1.0)
	prog := subject.Program

	run, err := jportal.Run(prog, subject.Threads, jportal.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}
	an, err := jportal.Analyze(prog, run, core.DefaultPipelineConfig())
	if err != nil {
		log.Fatal(err)
	}
	steps := 0
	for _, th := range an.Threads {
		steps += len(th.Steps)
	}

	byCount := profile.HotMethods(prog, an.Threads, 8)
	timeProf := profile.ComputeTimeProfile(prog, an.Threads, 20_000)
	byTime := timeProf.Top(8)

	fmt.Printf("subject: %s — hot spots from reconstructed flow (%d steps)\n\n",
		subject.Name, steps)
	fmt.Printf("%-4s %-22s %-22s\n", "#", "by instructions", "by attributed time")
	for i := 0; i < 8; i++ {
		a, b := "-", "-"
		if i < len(byCount) {
			a = prog.Methods[byCount[i]].FullName()
		}
		if i < len(byTime) {
			b = fmt.Sprintf("%s (%.1f%%)",
				prog.Methods[byTime[i]].FullName(),
				100*float64(timeProf.Cycles[byTime[i]])/float64(timeProf.Total))
		}
		fmt.Printf("%-4d %-22s %-22s\n", i+1, a, b)
	}

	// Ground truth (simulation affordance): how close is the time ranking
	// to the VM's own exclusive-cycles accounting?
	fmt.Printf("\nattributed %d of %d simulated cycles\n",
		timeProf.Total, run.Stats.Cycles)
}
