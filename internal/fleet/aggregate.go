package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"jportal"
	"jportal/internal/core"
	"jportal/internal/profile"
)

// Aggregation is the fleet-level rollup over every sealed session in the
// shared data directory — the merged view a single-node deployment gets
// from one process's reports, reassembled across however many nodes
// ingested the sessions (ISSUE: fleet aggregation; DESIGN.md §14).
type Aggregation struct {
	// Sessions are the per-session summaries, sorted by id.
	Sessions []SessionSummary
	// Skipped lists directories that were not aggregatable (unsealed,
	// foreign, or corrupt), with the reason. Reported, never silently
	// dropped: an incomplete fleet report must say so.
	Skipped []SkippedSession

	// CoveredInstrs/TotalInstrs sum the per-session coverage; Ratio is
	// the fleet-wide weighted coverage. Sessions run different programs,
	// so this weights each instruction equally, not each session.
	CoveredInstrs, TotalInstrs int
	// Steps counts reconstructed control-flow steps fleet-wide.
	Steps int64
	// HotMethods ranks methods by step count across all sessions, merged
	// by full name (Class.Method).
	HotMethods []HotMethod
	// Quarantined sums the degradation ledgers by reason slug. All-zero
	// on a healthy fleet.
	Quarantined map[string]uint64
}

// SessionSummary is one session's contribution to the fleet view.
type SessionSummary struct {
	ID     string
	Source string // trace-source backend ("" = default)

	CoveredInstrs, TotalInstrs int
	CoveredMethods             int
	Steps                      int64
	Threads                    int
	Quarantined                map[string]uint64
}

// Ratio is the session's statement coverage.
func (s *SessionSummary) Ratio() float64 {
	if s.TotalInstrs == 0 {
		return 0
	}
	return float64(s.CoveredInstrs) / float64(s.TotalInstrs)
}

// SkippedSession names a directory the aggregation could not include.
type SkippedSession struct {
	ID     string
	Reason string
}

// HotMethod is one entry of the fleet-wide hot-method ranking.
type HotMethod struct {
	Name  string // Class.Method
	Steps int64
}

// Ratio is the fleet-wide weighted statement coverage.
func (a *Aggregation) Ratio() float64 {
	if a.TotalInstrs == 0 {
		return 0
	}
	return float64(a.CoveredInstrs) / float64(a.TotalInstrs)
}

// Aggregate analyzes every session directory under dataDir and merges
// the results. topHot bounds the merged hot-method ranking (0 = 10).
// Each session decodes with its own recorded trace source, so a fleet
// mixing Intel PT and E-Trace sessions aggregates cleanly.
func Aggregate(dataDir string, topHot int) (*Aggregation, error) {
	if topHot <= 0 {
		topHot = 10
	}
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return nil, err
	}
	agg := &Aggregation{Quarantined: make(map[string]uint64)}
	hot := make(map[string]int64)
	for _, e := range entries {
		// Dot-dirs are infrastructure, not sessions — most importantly the
		// scrubber's .quarantine, whose contents are damaged by definition.
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		id := e.Name()
		dir := filepath.Join(dataDir, id)
		if _, err := os.Stat(filepath.Join(dir, jportal.MetaFileName)); err != nil {
			agg.Skipped = append(agg.Skipped, SkippedSession{ID: id, Reason: "not a run archive"})
			continue
		}
		sum, steps, err := summarizeSession(dir, id)
		if err != nil {
			agg.Skipped = append(agg.Skipped, SkippedSession{ID: id, Reason: err.Error()})
			continue
		}
		agg.Sessions = append(agg.Sessions, *sum)
		agg.CoveredInstrs += sum.CoveredInstrs
		agg.TotalInstrs += sum.TotalInstrs
		agg.Steps += sum.Steps
		for reason, n := range sum.Quarantined {
			agg.Quarantined[reason] += n
		}
		for name, n := range steps {
			hot[name] += n
		}
	}
	sort.Slice(agg.Sessions, func(i, j int) bool { return agg.Sessions[i].ID < agg.Sessions[j].ID })
	sort.Slice(agg.Skipped, func(i, j int) bool { return agg.Skipped[i].ID < agg.Skipped[j].ID })
	names := make([]string, 0, len(hot))
	for name := range hot {
		names = append(names, name)
	}
	// Rank by steps, ties by name, so the report is deterministic.
	sort.Slice(names, func(i, j int) bool {
		if hot[names[i]] != hot[names[j]] {
			return hot[names[i]] > hot[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > topHot {
		names = names[:topHot]
	}
	for _, name := range names {
		agg.HotMethods = append(agg.HotMethods, HotMethod{Name: name, Steps: hot[name]})
	}
	return agg, nil
}

// summarizeSession replays one sealed chunked archive and reduces it to
// a summary plus its per-method step counts (keyed by full name, the only
// identity that survives across sessions running different programs).
func summarizeSession(dir, id string) (*SessionSummary, map[string]int64, error) {
	src, err := jportal.ArchiveSourceID(dir)
	if err != nil {
		return nil, nil, err
	}
	prog, an, err := jportal.AnalyzeStreamArchive(dir, core.DefaultPipelineConfig(), false, 0)
	if err != nil {
		return nil, nil, err
	}
	sum := &SessionSummary{ID: id, Source: src, Quarantined: make(map[string]uint64)}
	cov := profile.NewCoverage(prog)
	steps := make(map[string]int64)
	for _, tr := range an.Threads {
		sum.Threads++
		sum.Steps += int64(len(tr.Steps))
		cov.Add(tr.Steps)
		for i := range tr.Steps {
			mid := tr.Steps[i].Method
			if mid < 0 || int(mid) >= len(prog.Methods) {
				continue
			}
			steps[prog.Methods[mid].FullName()]++
		}
	}
	cov.Seal()
	sum.CoveredInstrs, sum.TotalInstrs = cov.CoveredInstrs, cov.TotalInstrs
	sum.CoveredMethods = cov.CoveredMethods
	if an.Report != nil {
		for reason, n := range an.Report.Quarantined {
			sum.Quarantined[reason] += n
		}
	}
	return sum, steps, nil
}

// Format renders the aggregation as the `jportal fleet report` text.
func (a *Aggregation) Format() string {
	out := fmt.Sprintf("fleet report: %d session(s), %d skipped\n", len(a.Sessions), len(a.Skipped))
	out += fmt.Sprintf("  coverage  %d/%d instrs (%.1f%%)\n", a.CoveredInstrs, a.TotalInstrs, 100*a.Ratio())
	out += fmt.Sprintf("  steps     %d\n", a.Steps)
	for _, s := range a.Sessions {
		src := s.Source
		if src != "" {
			src = " [" + src + "]"
		}
		out += fmt.Sprintf("  session %s%s: %d threads, %d steps, %.1f%% coverage\n",
			s.ID, src, s.Threads, s.Steps, 100*s.Ratio())
	}
	if len(a.HotMethods) > 0 {
		out += "  hot methods:\n"
		for _, h := range a.HotMethods {
			out += fmt.Sprintf("    %10d  %s\n", h.Steps, h.Name)
		}
	}
	quarantined := false
	for _, n := range a.Quarantined {
		if n > 0 {
			quarantined = true
		}
	}
	if quarantined {
		out += "  degradation:\n"
		reasons := make([]string, 0, len(a.Quarantined))
		for r := range a.Quarantined {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			if a.Quarantined[r] > 0 {
				out += fmt.Sprintf("    %10d  %s\n", a.Quarantined[r], r)
			}
		}
	}
	for _, s := range a.Skipped {
		out += fmt.Sprintf("  skipped %s: %s\n", s.ID, s.Reason)
	}
	return out
}
