package jportal

import (
	"fmt"
	"sort"
	"strings"

	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/fault"
	"jportal/internal/metrics"
	"jportal/internal/source"
	"jportal/internal/vm"
)

// ChaosRow is one point of the coverage-vs-fault-rate curve: the subject
// analysed under base matrix × Rate.
type ChaosRow struct {
	// Rate is the multiplier applied to the base matrix.
	Rate float64
	// Matrix is the scaled matrix actually injected.
	Matrix fault.Matrix
	// Steps and RecoveredSteps summarise the surviving profile.
	Steps          int
	RecoveredSteps int
	// Coverage is the bytecode coverage of the surviving profile.
	Coverage float64
	// Report is the run's full degradation report, with the injector's
	// per-class counts folded in.
	Report *fault.DegradationReport
}

// ChaosTable runs one subject once, then analyses it repeatedly under the
// base fault matrix scaled by each rate, quantifying graceful degradation:
// how coverage decays as the input gets more hostile. Rate 0 is the clean
// baseline (the injector passes everything through untouched). The whole
// table is deterministic for a fixed base matrix: faults are seeded, and
// the analysis pipeline is deterministic for any worker count.
func ChaosTable(prog *bytecode.Program, threads []vm.ThreadSpec, rcfg RunConfig,
	pcfg core.PipelineConfig, base fault.Matrix, rates []float64) ([]ChaosRow, error) {

	rcfg.CollectOracle = false
	run, err := Run(prog, threads, rcfg)
	if err != nil {
		return nil, err
	}
	rows := make([]ChaosRow, 0, len(rates))
	for _, rate := range rates {
		m := base.Scale(rate)
		an, inj, err := analyzeFaulted(prog, run, pcfg, m)
		if err != nil {
			return nil, err
		}
		rep := an.Report
		rep.Injected = inj.Counts()
		row := ChaosRow{Rate: rate, Matrix: m, Coverage: rep.Coverage, Report: rep}
		for _, t := range an.Threads {
			row.Steps += len(t.Steps)
			row.RecoveredSteps += t.RecoveredSteps
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// analyzeFaulted is Analyze over a copy of run whose metadata snapshot,
// sideband and traces all passed through the fault injector.
func analyzeFaulted(prog *bytecode.Program, run *RunResult, pcfg core.PipelineConfig,
	m fault.Matrix) (*Analysis, *fault.Injector, error) {

	src, err := run.Source()
	if err != nil {
		return nil, nil, err
	}
	// The injector corrupts through the source's traits hooks, so chaos
	// runs exercise whichever backend collected the trace.
	inj := fault.NewInjector(m, src.Traits(), metrics.Default)
	faulted := *run
	faulted.Snapshot = inj.Snapshot(run.Snapshot)
	faulted.Sideband = inj.Sideband(run.Sideband)
	faulted.Traces = make([]source.CoreTrace, len(run.Traces))
	for i, t := range run.Traces {
		faulted.Traces[i] = source.CoreTrace{Core: t.Core, Items: inj.Items(t.Core, t.Items)}
	}
	an, err := Analyze(prog, &faulted, pcfg)
	if err != nil {
		return nil, nil, err
	}
	return an, inj, nil
}

// FormatChaosTable renders rows as the fixed-width table `jportal chaos`
// prints, followed by the per-rate fault-class breakdowns. Deterministic
// for deterministic rows.
func FormatChaosTable(subject string, seed uint64, rows []ChaosRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== chaos: %s (seed %d) ===\n", subject, seed)
	fmt.Fprintf(&b, "%-6s %-9s %-10s %-10s %-12s %-12s %s\n",
		"rate", "coverage", "steps", "recovered", "quarantined", "q-bytes", "seg(dec/quar)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6.2f %-9.4f %-10d %-10d %-12d %-12d %d/%d\n",
			r.Rate, r.Coverage, r.Steps, r.RecoveredSteps,
			r.Report.QuarantinedItems, r.Report.QuarantinedBytes,
			r.Report.SegmentsDecoded, r.Report.SegmentsQuarantined)
	}
	for _, r := range rows {
		if len(r.Report.Injected) == 0 && len(r.Report.Quarantined) == 0 {
			continue
		}
		fmt.Fprintf(&b, "rate %.2f faults:\n", r.Rate)
		writePairs(&b, "  injected   ", r.Report.Injected)
		writePairs(&b, "  quarantine ", r.Report.Quarantined)
	}
	return b.String()
}

func writePairs(b *strings.Builder, prefix string, m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s%-18s %d\n", prefix, k, m[k])
	}
}
