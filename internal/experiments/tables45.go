package experiments

import (
	"fmt"
	"io"
	"time"

	"jportal"
	"jportal/internal/baselines"
	"jportal/internal/metrics"
	"jportal/internal/profile"
	"jportal/internal/vm"
	"jportal/internal/workload"
)

// ---- Table 4: hot-method detection accuracy ----

// Table4Row is one subject's top-10 intersection counts.
type Table4Row struct {
	Subject string
	Xprof   int
	JProf   int
	JPortal int
}

// Table4 ranks the 10 hottest methods under each profiler and intersects
// with the ground truth (instruction counts from the oracle, standing in
// for the instrumentation-derived truth of the paper). Subjects fan out on
// the worker pool.
func Table4(o Options) ([]Table4Row, error) {
	o = o.Defaults()
	const topN = 10
	rows := make([]Table4Row, len(o.Subjects))
	err := forSubjects(o, func(i int, name string) error {
		s, err := workload.Load(name, o.Scale)
		if err != nil {
			return err
		}
		// Ground truth from an oracle-attached plain run.
		m := vm.New(s.Program, vmConfig(o))
		oracle := jportal.NewOracle(len(s.Threads))
		m.Listener = oracle
		if _, err := m.Run(s.Threads); err != nil {
			return err
		}
		truth := rankTruth(oracle.MethodCounts(len(s.Program.Methods)), topN)

		row := Table4Row{Subject: name}

		// xprof.
		xp := baselines.NewXprof(o.SampleInterval)
		if _, err := runPlain(s, o, nil, 0, xp); err != nil {
			return err
		}
		row.Xprof = metrics.TopNIntersection(truth, xp.Top(topN), topN)

		// JProfiler.
		jp := baselines.NewJProfiler(o.SampleInterval)
		if _, err := runPlain(s, o, nil, 0, jp); err != nil {
			return err
		}
		row.JProf = metrics.TopNIntersection(truth, jp.Top(topN), topN)

		// JPortal: hot methods from the reconstructed control flow.
		run, err := runJPortal(s, o)
		if err != nil {
			return err
		}
		an, err := jportal.Analyze(s.Program, run, pipelineConfig(o))
		if err != nil {
			return err
		}
		hot := profile.HotMethods(s.Program, an.Threads, topN)
		row.JPortal = metrics.TopNIntersection(truth, hot, topN)

		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func rankTruth(counts []int64, n int) []int32 {
	idx := make([]int32, len(counts))
	for i := range idx {
		idx[i] = int32(i)
	}
	// simple selection of top n by count
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if counts[idx[j]] > counts[idx[i]] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	out := make([]int32, 0, n)
	for _, i := range idx {
		if counts[i] == 0 || len(out) == n {
			break
		}
		out = append(out, i)
	}
	return out
}

// PrintTable4 renders the intersections.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table 4. Accuracy in hot method detection (top-10 intersection with ground truth).\n")
	fmt.Fprintf(w, "%-10s %6s %9s %8s\n", "Subject", "xprof", "JProfiler", "JPortal")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6d %9d %8d\n", r.Subject, r.Xprof, r.JProf, r.JPortal)
	}
}

// ---- Table 5: trace size and decoding/recovery performance ----

// Table5Row compares trace volume and offline analysis time between the
// instrumentation-based control-flow tracer and JPortal.
type Table5Row struct {
	Subject string
	// Baseline (Ball-Larus control-flow tracing).
	BaseTS uint64
	BaseDT time.Duration
	// JPortal.
	TS uint64
	DT time.Duration
	RT time.Duration
	// HasLoss marks rows whose RT is meaningful.
	HasLoss bool
}

// Table5 measures trace sizes and decode/recovery times. Subjects fan out
// on the worker pool; DT/RT remain comparable because they are per-thread
// times summed, measured inside each subject's own pipeline.
func Table5(o Options) ([]Table5Row, error) {
	o = o.Defaults()
	rows := make([]Table5Row, len(o.Subjects))
	err := forSubjects(o, func(i int, name string) error {
		s, err := workload.Load(name, o.Scale)
		if err != nil {
			return err
		}
		row := Table5Row{Subject: name}

		// Baseline CF tracer.
		ip, fp, err := baselines.InstrumentFlow(s.Program)
		if err != nil {
			return err
		}
		if _, err := runPlain(&workload.Subject{Name: name, Program: ip, Threads: s.Threads},
			o, &fp.Registry, baselines.FlowProbeCost, nil); err != nil {
			return err
		}
		row.BaseTS = fp.TraceBytes()
		t0 := time.Now()
		for tid := range s.Threads {
			_ = fp.Replay(tid)
		}
		row.BaseDT = time.Since(t0)

		// JPortal.
		run, err := runJPortal(s, o)
		if err != nil {
			return err
		}
		var exported uint64
		for _, tr := range run.Traces {
			exported += tr.Bytes()
		}
		row.TS = exported
		an, err := jportal.Analyze(s.Program, run, pipelineConfig(o))
		if err != nil {
			return err
		}
		for _, t := range an.Threads {
			row.DT += t.DecodeTime
			row.RT += t.RecoverTime
			if t.Decode.LostBytes > 0 {
				row.HasLoss = true
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintTable5 renders sizes and times.
func PrintTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintf(w, "Table 5. Trace size (TS) and time for decoding (DT) and recovery (RT).\n")
	fmt.Fprintf(w, "%-10s %12s %10s %12s %10s %10s\n",
		"Subject", "Base TS", "Base DT", "JPortal TS", "DT", "RT")
	for _, r := range rows {
		rt := "-"
		if r.HasLoss {
			rt = fmt.Sprintf("%.1fms", float64(r.RT)/float64(time.Millisecond))
		}
		fmt.Fprintf(w, "%-10s %11dK %9.1fms %11dK %8.1fms %10s\n",
			r.Subject, r.BaseTS/1024, float64(r.BaseDT)/float64(time.Millisecond),
			r.TS/1024, float64(r.DT)/float64(time.Millisecond), rt)
	}
}
