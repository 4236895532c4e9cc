package jportal_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§7) plus the ablations DESIGN.md calls out. Each BenchmarkX
// prints the corresponding rows once (the shape comparison against the
// paper lives in EXPERIMENTS.md) and reports headline numbers as custom
// benchmark metrics.
//
//	go test -bench=. -benchmem
//
// Per-table regeneration is also available interactively:
//
//	go run ./cmd/jportal exp table2

import (
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"jportal"

	"jportal/internal/bytecode"
	"jportal/internal/cfg"
	"jportal/internal/core"
	"jportal/internal/experiments"
	"jportal/internal/metrics"
	"jportal/internal/pt"
	"jportal/internal/source"
	"jportal/internal/vm"
	"jportal/internal/workload"
)

var benchOpts = experiments.Options{Scale: 1.0}

var printOnce sync.Map

func printedBefore(key string) bool {
	_, loaded := printOnce.LoadOrStore(key, true)
	return loaded
}

// ---- Table 1 ----

func BenchmarkTable1Subjects(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && !printedBefore("table1") {
			experiments.PrintTable1(os.Stdout, rows)
		}
	}
}

// ---- Table 2 ----

func BenchmarkTable2Overhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && !printedBefore("table2") {
			experiments.PrintTable2(os.Stdout, rows)
		}
		var jp, cf float64
		for _, r := range rows {
			jp += r.JPortal
			cf += r.CF
		}
		b.ReportMetric(jp/float64(len(rows)), "jportal-slowdown")
		b.ReportMetric(cf/float64(len(rows)), "cf-slowdown")
	}
}

// ---- Figure 7 ----

func BenchmarkFigure7Accuracy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && !printedBefore("figure7") {
			experiments.PrintFigure7(os.Stdout, rows)
		}
		var sum float64
		for _, r := range rows {
			sum += r.Overall
		}
		b.ReportMetric(100*sum/float64(len(rows)), "overall-accuracy-%")
	}
}

// ---- Table 3 ----

func BenchmarkTable3Breakdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && !printedBefore("table3") {
			experiments.PrintTable3(os.Stdout, rows)
		}
		var pmd float64
		for _, r := range rows {
			pmd += r.PMD
		}
		b.ReportMetric(100*pmd/float64(len(rows)), "mean-pmd-%")
	}
}

// ---- Table 4 ----

func BenchmarkTable4HotMethods(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && !printedBefore("table4") {
			experiments.PrintTable4(os.Stdout, rows)
		}
		var jp, xp float64
		for _, r := range rows {
			jp += float64(r.JPortal)
			xp += float64(r.Xprof)
		}
		b.ReportMetric(jp/float64(len(rows)), "jportal-top10-hits")
		b.ReportMetric(xp/float64(len(rows)), "xprof-top10-hits")
	}
}

// ---- Table 5 ----

func BenchmarkTable5DecodeCost(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && !printedBefore("table5") {
			experiments.PrintTable5(os.Stdout, rows)
		}
		var ts, base float64
		for _, r := range rows {
			ts += float64(r.TS)
			base += float64(r.BaseTS)
		}
		b.ReportMetric(base/ts, "baseline-trace-size-ratio")
	}
}

// ---- Ablation A: Algorithm 1 vs Algorithm 2 (reconstruction search) ----

const ablationSrc = `
method Test.fun(2) returns int {
    iload 0
    ifeq Lelse
    iload 1
    iconst 1
    iadd
    istore 1
    goto Ljoin
Lelse:
    iload 1
    iconst 2
    isub
    istore 1
Ljoin:
    iload 1
    iconst 2
    irem
    ifne Lfalse
    iconst 1
    ireturn
Lfalse:
    iconst 0
    ireturn
}
method Test.main(0) {
    iconst 1
    iconst 7
    invokestatic Test.fun
    pop
    return
}
entry Test.main
`

func ablationTrace() []core.Token {
	mk := func(op bytecode.Opcode) core.Token {
		return core.Token{Op: op, Method: bytecode.NoMethod}
	}
	dir := func(op bytecode.Opcode, taken bool) core.Token {
		return core.Token{Op: op, Method: bytecode.NoMethod, HasDir: true, Taken: taken}
	}
	return []core.Token{
		mk(bytecode.ILOAD), dir(bytecode.IFEQ, true),
		mk(bytecode.ILOAD), mk(bytecode.ICONST), mk(bytecode.ISUB), mk(bytecode.ISTORE),
		mk(bytecode.ILOAD), mk(bytecode.ICONST), mk(bytecode.IREM),
		dir(bytecode.IFNE, true), mk(bytecode.ICONST), mk(bytecode.IRETURN),
	}
}

func BenchmarkAblationReconstruction(b *testing.B) {
	b.ReportAllocs()
	prog := bytecode.MustAssemble(ablationSrc)
	m := core.NewMatcher(cfg.BuildICFG(prog, cfg.DefaultOptions()))
	toks := ablationTrace()
	b.Run("Alg1-EnumerateAndTest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := m.EnumerateAndTest(toks); !ok {
				b.Fatal("trace rejected")
			}
		}
	})
	b.Run("Alg2-AbstractionGuided", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := m.AbstractionGuided(toks); !ok {
				b.Fatal("trace rejected")
			}
		}
	})
	b.Run("Batched-SubsetSim", func(b *testing.B) {
		sc := m.NewScratch()
		for i := 0; i < b.N; i++ {
			r := m.MatchFromScratch(sc, m.NodesWithOp(toks[0].Op), toks)
			if !r.Complete {
				b.Fatal("trace rejected")
			}
		}
	})
}

// ---- Ablation B: Algorithm 3 vs Algorithm 4 (recovery search) ----

func recoverySegments(tb testing.TB) (*core.Matcher, []*core.SegmentFlow) {
	tb.Helper()
	prog := bytecode.MustAssemble(ablationSrc)
	m := core.NewMatcher(cfg.BuildICFG(prog, cfg.DefaultOptions()))
	// mkRep stamps one token every 10 cycles from start.
	mkRep := func(n int, start uint64) *core.Segment {
		seg := new(core.Segment)
		for i := 0; i < n; i++ {
			for _, tk := range ablationTrace() {
				seg.Clock = append(seg.Clock, core.TSCMark{At: int32(len(seg.Tokens)), TSC: start + 10*uint64(len(seg.Tokens))})
				seg.Tokens = append(seg.Tokens, tk)
			}
		}
		return seg
	}
	sc := m.NewScratch()
	var flows []*core.SegmentFlow
	flows = append(flows, m.ReconstructSegmentScratch(sc, mkRep(20, 0)))
	for i := 0; i < 6; i++ {
		seg := mkRep(40, uint64(100_000*(i+1)))
		seg.GapBefore = &core.GapInfo{Start: uint64(100_000*(i+1)) - 500, End: uint64(100_000 * (i + 1)), LostBytes: 400}
		flows = append(flows, m.ReconstructSegmentScratch(sc, seg))
	}
	return m, flows
}

func BenchmarkAblationRecovery(b *testing.B) {
	b.ReportAllocs()
	m, flows := recoverySegments(b)
	rec := core.NewRecoverer(m, flows, core.DefaultRecoveryConfig())
	b.Run("Alg4-TieredIndexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if best, tried, _ := rec.SearchTiered(0); best == 0 || tried == 0 {
				b.Fatal("no candidates")
			}
		}
	})
	b.Run("Alg3-NaiveScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := rec.SearchNaive(0); !ok {
				b.Fatal("no candidates")
			}
		}
	})
}

// ---- Ablation D: NFA (paper) vs PDA (extension) matching ----

func BenchmarkAblationNFAvsPDA(b *testing.B) {
	b.ReportAllocs()
	prog := bytecode.MustAssemble(ablationSrc)
	m := core.NewMatcher(cfg.BuildICFG(prog, cfg.DefaultOptions()))
	var toks []core.Token
	// Interprocedural trace with calls/returns, repeated.
	inter := []core.Token{
		{Op: bytecode.ICONST, Method: bytecode.NoMethod},
		{Op: bytecode.ICONST, Method: bytecode.NoMethod},
		{Op: bytecode.INVOKESTATIC, Method: bytecode.NoMethod},
	}
	inter = append(inter, ablationTrace()...)
	inter = append(inter,
		core.Token{Op: bytecode.POP, Method: bytecode.NoMethod},
		core.Token{Op: bytecode.RETURN, Method: bytecode.NoMethod})
	for i := 0; i < 100; i++ {
		toks = append(toks, inter...)
	}
	b.Run("NFA", func(b *testing.B) {
		sc := m.NewScratch()
		for i := 0; i < b.N; i++ {
			r := m.MatchFromScratch(sc, m.NodesWithOp(toks[0].Op), toks[:len(inter)])
			if !r.Complete {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("PDA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := m.MatchFromContext(m.NodesWithOp(toks[0].Op), toks[:len(inter)])
			if !r.Complete {
				b.Fatal("rejected")
			}
		}
	})
}

// ---- Ablation C: recovery on/off accuracy ----

func BenchmarkAblationNoRecovery(b *testing.B) {
	b.ReportAllocs()
	s := workload.MustLoad("batik", 1.0)
	runCfg := jportal.DefaultRunConfig()
	runCfg.PT.BufBytes = 16 << 10
	run, err := jportal.Run(s.Program, s.Threads, runCfg)
	if err != nil {
		b.Fatal(err)
	}
	truth := run.Oracle.Keys(0)
	score := func(an *jportal.Analysis) float64 {
		var got []metrics.Key
		for _, st := range an.Threads[0].Steps {
			got = append(got, metrics.StepKey(int32(st.Method), st.PC))
		}
		return metrics.Similarity(got, truth, 4096)
	}
	b.Run("WithRecovery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			an, err := jportal.Analyze(s.Program, run, core.DefaultPipelineConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*score(an), "accuracy-%")
		}
	})
	b.Run("WithoutRecovery", func(b *testing.B) {
		pcfg := core.DefaultPipelineConfig()
		pcfg.Recovery.Disable = true
		for i := 0; i < b.N; i++ {
			an, err := jportal.Analyze(s.Program, run, pcfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*score(an), "accuracy-%")
		}
	})
}

// ---- Micro-benchmarks of the substrates ----

func BenchmarkVMThroughput(b *testing.B) {
	s := workload.MustLoad("sunflow", 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := vm.New(s.Program, vm.DefaultConfig())
		stats, err := m.Run(s.Threads)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(stats.ExecutedBytecodes))
	}
}

func BenchmarkPTCollection(b *testing.B) {
	b.ReportAllocs()
	s := workload.MustLoad("sunflow", 0.5)
	for i := 0; i < b.N; i++ {
		m := vm.New(s.Program, vm.DefaultConfig())
		col := pt.Traits().NewCollector(source.DefaultCollectorConfig(), vm.DefaultConfig().Cores)
		m.Tracer = col
		if _, err := m.Run(s.Threads); err != nil {
			b.Fatal(err)
		}
		col.Finish(m.FinalTSC())
	}
}

func BenchmarkOfflineDecode(b *testing.B) {
	b.ReportAllocs()
	s := workload.MustLoad("h2", 0.5)
	run, err := jportal.Run(s.Program, s.Threads, jportal.DefaultRunConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := jportal.Analyze(s.Program, run, core.DefaultPipelineConfig())
		if err != nil {
			b.Fatal(err)
		}
		var steps int
		for _, th := range an.Threads {
			steps += len(th.Steps)
		}
		b.SetBytes(int64(steps))
	}
}

// nfaLoopSrc is a loop program whose token trace is a genuine ICFG cycle:
// the matcher must carry one long run end to end.
const nfaLoopSrc = `
method B.loop(1) returns int {
    iconst 0
    istore 1
Lhead:
    iload 1
    iload 0
    if_icmpge Ldone
    iload 1
    iconst 3
    imul
    istore 1
    iinc 1 1
    goto Lhead
Ldone:
    iload 1
    ireturn
}
method B.main(0) {
    iconst 5
    invokestatic B.loop
    pop
    return
}
entry B.main
`

// nfaLoopTokens is nfaLoopSrc's loop body repeated 500 times.
func nfaLoopTokens() []core.Token {
	mk := func(op bytecode.Opcode) core.Token { return core.Token{Op: op, Method: bytecode.NoMethod} }
	iter := []core.Token{
		mk(bytecode.ILOAD), mk(bytecode.ILOAD),
		{Op: bytecode.IF_ICMPGE, Method: bytecode.NoMethod, HasDir: true, Taken: false},
		mk(bytecode.ILOAD), mk(bytecode.ICONST), mk(bytecode.IMUL), mk(bytecode.ISTORE),
		mk(bytecode.IINC), mk(bytecode.GOTO),
	}
	toks := []core.Token{mk(bytecode.ICONST), mk(bytecode.ISTORE)}
	for i := 0; i < 500; i++ {
		toks = append(toks, iter...)
	}
	return toks
}

// BenchmarkNFAMatch matches the loop trace on one caller-held scratch:
// with -benchmem it shows that steady-state matching allocates nothing —
// the per-layer frontier sets, dedup marks and witness path all live in
// the reused scratch.
func BenchmarkNFAMatch(b *testing.B) {
	prog := bytecode.MustAssemble(nfaLoopSrc)
	m := core.NewMatcher(cfg.BuildICFG(prog, cfg.DefaultOptions()))
	toks := nfaLoopTokens()
	starts := m.NodesWithOp(toks[0].Op)
	sc := m.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := m.MatchFromScratch(sc, starts, toks)
		if !r.Complete {
			b.Fatalf("rejected at %d of %d", r.Matched, len(toks))
		}
		b.SetBytes(int64(len(toks)))
	}
}

// BenchmarkAnalyzeParallel measures the offline pipeline's parallel
// speedup on a multi-thread (4-thread) lossy workload: the timed loop runs
// with Workers = GOMAXPROCS, a serial (Workers=1) pass of the same run is
// timed outside the loop, and the ratio is reported as speedup-vs-serial.
// On a single-core host the ratio hovers around 1.0 (the pool degrades to
// inline execution); on >=4 cores it tracks the thread-level fan-out. The
// outputs of both configurations are verified identical.
func BenchmarkAnalyzeParallel(b *testing.B) {
	s := workload.MustLoad("h2", 0.5)
	rcfg := jportal.DefaultRunConfig()
	rcfg.PT.BufBytes = 16 << 10 // paper-label 64MB: lossy, exercises recovery
	run, err := jportal.Run(s.Program, s.Threads, rcfg)
	if err != nil {
		b.Fatal(err)
	}

	serialCfg := core.DefaultPipelineConfig()
	serialCfg.Workers = 1
	parCfg := core.DefaultPipelineConfig() // Workers=0 -> GOMAXPROCS

	// Serial baseline (untimed by the harness, measured directly).
	t0 := time.Now()
	serialAn, err := jportal.Analyze(s.Program, run, serialCfg)
	if err != nil {
		b.Fatal(err)
	}
	serialTime := time.Since(t0)

	var last *jportal.Analysis
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := jportal.Analyze(s.Program, run, parCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = an
	}
	b.StopTimer()

	perOp := b.Elapsed() / time.Duration(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(serialTime)/float64(perOp), "speedup-vs-serial")
	}

	// Determinism: parallel output must be byte-identical to serial.
	if len(last.Threads) != len(serialAn.Threads) {
		b.Fatalf("thread count diverges: %d vs %d", len(last.Threads), len(serialAn.Threads))
	}
	for i := range last.Threads {
		if !reflect.DeepEqual(last.Threads[i].Steps, serialAn.Threads[i].Steps) ||
			!reflect.DeepEqual(last.Threads[i].Fills, serialAn.Threads[i].Fills) ||
			last.Threads[i].Decode != serialAn.Threads[i].Decode {
			b.Fatalf("thread %d: parallel output diverges from serial", i)
		}
	}
}
