// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the simulated substrate, plus the ablations DESIGN.md
// calls out. Each experiment returns structured rows and can print itself
// in the paper's layout; cmd/jportal and the root bench harness both drive
// it.
//
// Buffer-size scaling: the paper's per-core buffers are 64/128/256MB
// against DaCapo-scale trace volumes. Our subjects generate traces three
// orders of magnitude smaller, so the experiments map the paper's labels to
// 1/512 of their size (64MB -> 128KB etc.), preserving the
// buffer-to-trace-volume ratios that drive the loss rates in Table 3.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"jportal"
	"jportal/internal/baselines"
	"jportal/internal/bytecode"
	"jportal/internal/conc"
	"jportal/internal/core"
	"jportal/internal/metrics"
	"jportal/internal/source"
	"jportal/internal/vm"
	"jportal/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Scale sizes the workloads (1.0 = default evaluation size).
	Scale workload.Scale
	// Subjects restricts the subject list (nil = all nine).
	Subjects []string
	// BufMBLabel is the paper-label buffer size in "MB" (scaled down by
	// BufScaleShift at configuration time). Default 128.
	BufMBLabel int
	// SampleInterval is the profiler sampling interval in cycles
	// (the paper's 10ms at 1 cycle/ns ~ 1e7; scaled to our run lengths).
	SampleInterval uint64
	// Cores overrides the VM core count (0 = default).
	Cores int
	// Workers bounds the parallelism of the per-subject experiment loops
	// and of the offline pipelines they run (0 = GOMAXPROCS). Every table
	// and figure is deterministic for any worker count: subjects are
	// simulated independently and rows land in subject order.
	Workers int
}

// BufScaleShift: paper-label MB -> bytes = MB << (20 - 12) = MB * 256B
// (so 128MB maps to 32KB against trace volumes three orders of magnitude
// below DaCapo's).
const BufScaleShift = 12

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Subjects == nil {
		o.Subjects = workload.Names()
	}
	if o.BufMBLabel == 0 {
		o.BufMBLabel = 128
	}
	if o.SampleInterval == 0 {
		o.SampleInterval = 120_000
	}
	return o
}

// bufBytes converts a paper buffer label to simulation bytes.
func bufBytes(labelMB int) uint64 { return uint64(labelMB) << (20 - BufScaleShift) }

// pipelineConfig is the offline configuration the experiments analyse with:
// the production defaults plus the harness's worker bound.
func pipelineConfig(o Options) core.PipelineConfig {
	cfg := core.DefaultPipelineConfig()
	cfg.Workers = o.Workers
	return cfg
}

// forSubjects fans fn out over the configured subjects on the shared worker
// pool. fn must write results only into its own index i (rows[i]), which
// keeps output order deterministic; the first error in subject order wins.
func forSubjects(o Options, fn func(i int, name string) error) error {
	errs := make([]error, len(o.Subjects))
	conc.ParallelFor(conc.Workers(o.Workers), len(o.Subjects), func(i int) {
		errs[i] = fn(i, o.Subjects[i])
	})
	return conc.FirstError(errs)
}

func vmConfig(o Options) vm.Config {
	cfg := vm.DefaultConfig()
	if o.Cores > 0 {
		cfg.Cores = o.Cores
	}
	return cfg
}

func ptConfig(o Options) source.CollectorConfig {
	cfg := source.DefaultCollectorConfig()
	cfg.BufBytes = bufBytes(o.BufMBLabel)
	return cfg
}

// ---- Table 1: subject characteristics ----

// Table1Row mirrors the paper's Table 1.
type Table1Row struct {
	Subject  string
	Instrs   int
	Methods  int
	Classes  int
	Threaded string
}

// Table1 generates the subjects and describes them.
func Table1(o Options) ([]Table1Row, error) {
	o = o.Defaults()
	rows := make([]Table1Row, len(o.Subjects))
	err := forSubjects(o, func(i int, name string) error {
		s, err := workload.Load(name, o.Scale)
		if err != nil {
			return err
		}
		ch := workload.Describe(s)
		threaded := "single"
		if ch.Multi {
			threaded = "multiple"
		}
		rows[i] = Table1Row{
			Subject: name, Instrs: ch.Instrs, Methods: ch.Methods,
			Classes: ch.Classes, Threaded: threaded,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintTable1 renders rows in the paper's layout.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1. Characteristics of subject programs.\n")
	fmt.Fprintf(w, "%-10s %8s %8s %8s %10s\n", "Subject", "#Instr", "#Methods", "#Classes", "Threaded")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %8d %8d %10s\n", r.Subject, r.Instrs, r.Methods, r.Classes, r.Threaded)
	}
}

// ---- Table 2: runtime overhead ----

// Table2Row holds the slowdown factors for one subject.
type Table2Row struct {
	Subject string
	JPortal float64
	SC      float64
	PF      float64
	CF      float64
	HM      float64
	Xprof   float64
	JProf   float64
}

// Table2 measures slowdowns: simulated cycles under each profiler divided
// by the plain run's cycles. Subjects are measured concurrently — each
// iteration builds its own program, VM and profilers, and the slowdown
// ratios come from deterministic simulated cycle counts, not wall time, so
// the fan-out cannot perturb the numbers.
func Table2(o Options) ([]Table2Row, error) {
	o = o.Defaults()
	rows := make([]Table2Row, len(o.Subjects))
	err := forSubjects(o, func(i int, name string) error {
		s, err := workload.Load(name, o.Scale)
		if err != nil {
			return err
		}
		base, err := runPlain(s, o, nil, 0, nil)
		if err != nil {
			return err
		}
		row := Table2Row{Subject: name}

		// JPortal: PT collection + metadata export.
		jp, err := runJPortal(s, o)
		if err != nil {
			return err
		}
		// Slowdowns use total CPU time (deterministic and monotone in
		// added per-step cost); for single-threaded subjects this equals
		// the wall-clock ratio.
		row.JPortal = ratio(jp.Stats.ActiveCycles, base.ActiveCycles)

		// Instrumentation baselines.
		for _, b := range []struct {
			slot *float64
			inst func(*bytecode.Program) (*bytecode.Program, *baselines.Registry, error)
			cost uint64
		}{
			{&row.SC, instrumentSC, baselines.CoverageProbeCost},
			{&row.PF, instrumentPF, baselines.PathProbeCost},
			{&row.CF, instrumentCF, baselines.FlowProbeCost},
			{&row.HM, instrumentHM, baselines.HotProbeCost},
		} {
			ip, reg, err := b.inst(s.Program)
			if err != nil {
				return err
			}
			st, err := runPlain(&workload.Subject{
				Name: s.Name, Program: ip, Threads: s.Threads,
			}, o, reg, b.cost, nil)
			if err != nil {
				return err
			}
			*b.slot = ratio(st.ActiveCycles, base.ActiveCycles)
		}

		// Sampling baselines.
		xp := baselines.NewXprof(o.SampleInterval)
		st, err := runPlain(s, o, nil, 0, xp)
		if err != nil {
			return err
		}
		row.Xprof = ratio(st.ActiveCycles, base.ActiveCycles)

		jpr := baselines.NewJProfiler(o.SampleInterval)
		st, err = runPlain(s, o, nil, 0, jpr)
		if err != nil {
			return err
		}
		row.JProf = ratio(st.ActiveCycles, base.ActiveCycles)

		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// PrintTable2 renders the slowdown table.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2. Slowdown in times (higher is worse).\n")
	fmt.Fprintf(w, "%-10s %8s %9s %9s %10s %8s %7s %7s\n",
		"Subject", "JPortal", "SC", "PF", "CF", "HM", "xprof", "JProf")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8.3f %9.3f %9.3f %10.3f %8.3f %7.3f %7.3f\n",
			r.Subject, r.JPortal, r.SC, r.PF, r.CF, r.HM, r.Xprof, r.JProf)
	}
}

// instrument adapters unify the four instrumenters' signatures.
func instrumentSC(p *bytecode.Program) (*bytecode.Program, *baselines.Registry, error) {
	ip, prof, err := baselines.InstrumentCoverage(p)
	if err != nil {
		return nil, nil, err
	}
	return ip, &prof.Registry, nil
}

func instrumentPF(p *bytecode.Program) (*bytecode.Program, *baselines.Registry, error) {
	ip, prof, err := baselines.InstrumentPaths(p)
	if err != nil {
		return nil, nil, err
	}
	return ip, &prof.Registry, nil
}

func instrumentCF(p *bytecode.Program) (*bytecode.Program, *baselines.Registry, error) {
	ip, prof, err := baselines.InstrumentFlow(p)
	if err != nil {
		return nil, nil, err
	}
	return ip, &prof.Registry, nil
}

func instrumentHM(p *bytecode.Program) (*bytecode.Program, *baselines.Registry, error) {
	ip, prof, err := baselines.InstrumentHot(p)
	if err != nil {
		return nil, nil, err
	}
	return ip, &prof.Registry, nil
}

// runPlain runs a subject without PT; reg/probeCost attach instrumentation,
// sampler attaches a sampling profiler.
func runPlain(s *workload.Subject, o Options, reg *baselines.Registry, probeCost uint64, sampler vm.Sampler) (*vm.Stats, error) {
	m := vm.New(s.Program, vmConfig(o))
	if reg != nil {
		m.Probe = reg.Handle
		m.ProbeActionCost = probeCost
	}
	if sampler != nil {
		m.Sampler = sampler
	}
	return m.Run(s.Threads)
}

// runJPortal runs a subject with PT collection and the oracle attached.
func runJPortal(s *workload.Subject, o Options) (*jportal.RunResult, error) {
	cfg := jportal.RunConfig{VM: vmConfig(o), PT: ptConfig(o), CollectOracle: true}
	return jportal.Run(s.Program, s.Threads, cfg)
}

// ---- Figure 7 and Table 3: accuracy ----

// AccuracyRow is one subject's accuracy decomposition.
type AccuracyRow struct {
	Subject string
	BufMB   int
	metrics.Breakdown
	Segments  int
	LostBytes uint64
	GenBytes  uint64
	DecodeMS  float64
	RecoverMS float64
	Recovered int
	Decoded   int
}

// MeasureAccuracy runs one subject under JPortal and scores the
// reconstruction against the oracle.
func MeasureAccuracy(name string, o Options) (*AccuracyRow, error) {
	o = o.Defaults()
	s, err := workload.Load(name, o.Scale)
	if err != nil {
		return nil, err
	}
	run, err := runJPortal(s, o)
	if err != nil {
		return nil, err
	}
	an, err := jportal.Analyze(s.Program, run, pipelineConfig(o))
	if err != nil {
		return nil, err
	}
	row := &AccuracyRow{Subject: name, BufMB: o.BufMBLabel}
	row.Breakdown = scoreAnalysis(run, an)
	for _, t := range an.Threads {
		row.Segments += t.Decode.Segments
		row.LostBytes += t.Decode.LostBytes
		row.DecodeMS += float64(t.DecodeTime) / float64(time.Millisecond)
		row.RecoverMS += float64(t.RecoverTime) / float64(time.Millisecond)
		row.Recovered += t.RecoveredSteps
		row.Decoded += t.DecodedSteps
	}
	row.GenBytes = run.GenBytes
	return row, nil
}

// scoreAnalysis compares an analysis against the run's oracle, averaging
// per-thread breakdowns weighted by truth length.
func scoreAnalysis(run *jportal.RunResult, an *jportal.Analysis) metrics.Breakdown {
	var agg metrics.Breakdown
	var wsum float64
	for _, t := range an.Threads {
		if t.Thread >= run.Oracle.NumThreads() {
			continue
		}
		truth := run.Oracle.TimedKeys(t.Thread)
		if len(truth) == 0 {
			continue
		}
		lost := lostIntervals(t)
		var decoded, recovered []metrics.TimedKey
		for _, st := range t.Steps {
			k := metrics.TimedKey{Key: metrics.StepKey(int32(st.Method), st.PC), TSC: st.TSC}
			if st.Recovered {
				recovered = append(recovered, k)
			} else {
				decoded = append(decoded, k)
			}
		}
		b := metrics.ComputeBreakdownTimed(truth, lost, decoded, recovered, 8192)
		w := float64(len(truth))
		agg.PMD += b.PMD * w
		agg.PDC += b.PDC * w
		agg.DA += b.DA * w
		agg.RA += b.RA * w
		agg.PD += b.PD * w
		agg.PR += b.PR * w
		agg.Overall += b.Overall * w
		wsum += w
	}
	if wsum > 0 {
		agg.PMD /= wsum
		agg.PDC /= wsum
		agg.DA /= wsum
		agg.RA /= wsum
		agg.PD /= wsum
		agg.PR /= wsum
		agg.Overall /= wsum
	}
	return agg
}

// lostIntervals extracts a thread's sorted, merged loss intervals.
func lostIntervals(t *core.ThreadResult) []metrics.Interval {
	var ivs []metrics.Interval
	for _, f := range t.Flows {
		g := f.Seg.GapBefore
		if g == nil || g.Desync || g.Duration() == 0 {
			continue
		}
		ivs = append(ivs, metrics.Interval{Start: g.Start, End: g.End})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var merged []metrics.Interval
	for _, iv := range ivs {
		if n := len(merged); n > 0 && iv.Start <= merged[n-1].End {
			if iv.End > merged[n-1].End {
				merged[n-1].End = iv.End
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// Figure7 measures overall accuracy for every subject at the default
// buffer size, fanning the subjects out on the worker pool.
func Figure7(o Options) ([]AccuracyRow, error) {
	o = o.Defaults()
	rows := make([]AccuracyRow, len(o.Subjects))
	err := forSubjects(o, func(i int, name string) error {
		r, err := MeasureAccuracy(name, o)
		if err != nil {
			return err
		}
		rows[i] = *r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintFigure7 renders the accuracy bars.
func PrintFigure7(w io.Writer, rows []AccuracyRow) {
	fmt.Fprintf(w, "Figure 7. JPortal's overall accuracy vs instrumented ground truth.\n")
	fmt.Fprintf(w, "%-10s %9s\n", "Subject", "Accuracy")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8.1f%%\n", r.Subject, r.Overall*100)
		sum += r.Overall
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "%-10s %8.1f%%\n", "overall", sum/float64(len(rows))*100)
	}
}

// Table3Subjects are the subjects the paper breaks down (those with >10%
// loss).
var Table3Subjects = []string{"batik", "h2", "sunflow"}

// Table3 measures the loss/recovery breakdown at the paper's three buffer
// sizes. The (subject, buffer) grid is flattened and fanned out as one
// index space so small subject lists still fill the worker pool.
func Table3(o Options) ([]AccuracyRow, error) {
	o = o.Defaults()
	subjects := o.Subjects
	if len(subjects) == len(workload.Names()) {
		subjects = Table3Subjects
	}
	bufs := []int{256, 128, 64}
	rows := make([]AccuracyRow, len(subjects)*len(bufs))
	errs := make([]error, len(rows))
	conc.ParallelFor(conc.Workers(o.Workers), len(rows), func(i int) {
		oo := o
		oo.BufMBLabel = bufs[i%len(bufs)]
		r, err := MeasureAccuracy(subjects[i/len(bufs)], oo)
		if err != nil {
			errs[i] = err
			return
		}
		rows[i] = *r
	})
	if err := conc.FirstError(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintTable3 renders the breakdown.
func PrintTable3(w io.Writer, rows []AccuracyRow) {
	fmt.Fprintf(w, "Table 3. Data captured/lost and reconstruction accuracy by buffer size.\n")
	fmt.Fprintf(w, "%-10s %6s %7s %7s %7s %7s %7s %7s\n",
		"Subject", "Buf", "PMD", "PR", "RA", "PDC", "PD", "DA")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %4dM %6.2f%% %6.2f%% %6.2f%% %6.2f%% %6.2f%% %6.2f%%\n",
			r.Subject, r.BufMB, r.PMD*100, r.PR*100, r.RA*100, r.PDC*100, r.PD*100, r.DA*100)
	}
}
