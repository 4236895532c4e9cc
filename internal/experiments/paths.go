package experiments

import (
	"fmt"
	"io"

	"jportal"
	"jportal/internal/baselines"
	"jportal/internal/profile"
	"jportal/internal/workload"
)

// Path-profile accuracy (extension). The paper's introduction motivates
// that "with a program's control flow ... path profiles ... are all close
// at hand"; this experiment quantifies it: derive a Ball-Larus path profile
// from JPortal's reconstructed flow and score it against the counts the
// PF-instrumented run collects. The score is the weighted histogram
// overlap sum(min(true, recon)) / sum(true), aggregated over methods.

// PathRow is one subject's path-profile accuracy.
type PathRow struct {
	Subject string
	// TruePaths and ReconPaths count distinct observed paths.
	TruePaths, ReconPaths int
	// Overlap is the weighted histogram overlap in [0,1].
	Overlap float64
}

// PathAccuracy measures path-profile accuracy for the configured subjects,
// fanned out on the worker pool.
func PathAccuracy(o Options) ([]PathRow, error) {
	o = o.Defaults()
	rows := make([]PathRow, len(o.Subjects))
	err := forSubjects(o, func(i int, name string) error {
		s, err := workload.Load(name, o.Scale)
		if err != nil {
			return err
		}
		// Ground truth from Ball-Larus instrumentation.
		ip, prof, err := baselines.InstrumentPaths(s.Program)
		if err != nil {
			return err
		}
		if _, err := runPlain(&workload.Subject{Name: name, Program: ip, Threads: s.Threads},
			o, &prof.Registry, baselines.PathProbeCost, nil); err != nil {
			return err
		}

		// JPortal-derived profile.
		run, err := runJPortal(s, o)
		if err != nil {
			return err
		}
		an, err := jportal.Analyze(s.Program, run, pipelineConfig(o))
		if err != nil {
			return err
		}
		pp := profile.ComputePathProfile(s.Program, an.Threads)

		row := PathRow{Subject: name}
		var trueTotal, overlap uint64
		for mid, trueCounts := range prof.Counts {
			reconCounts := pp.Counts[mid]
			row.TruePaths += len(trueCounts)
			for pid, tc := range trueCounts {
				trueTotal += tc
				rc := reconCounts[pid]
				if rc < tc {
					overlap += rc
				} else {
					overlap += tc
				}
			}
		}
		for _, reconCounts := range pp.Counts {
			row.ReconPaths += len(reconCounts)
		}
		if trueTotal > 0 {
			row.Overlap = float64(overlap) / float64(trueTotal)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintPathAccuracy renders the extension table.
func PrintPathAccuracy(w io.Writer, rows []PathRow) {
	fmt.Fprintf(w, "Extension: Ball-Larus path profiles derived from JPortal's flow\n")
	fmt.Fprintf(w, "%-10s %10s %11s %9s\n", "Subject", "TruePaths", "ReconPaths", "Overlap")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %11d %8.1f%%\n", r.Subject, r.TruePaths, r.ReconPaths, r.Overlap*100)
	}
}
