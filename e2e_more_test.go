package jportal

import (
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/metrics"
	"jportal/internal/profile"
	"jportal/internal/vm"
	"jportal/internal/workload"
)

func similarity(an *Analysis, o *Oracle, tid int) float64 {
	var got []metrics.Key
	for _, s := range an.Threads[tid].Steps {
		got = append(got, metrics.StepKey(int32(s.Method), s.PC))
	}
	return metrics.Similarity(got, o.Keys(tid), 4096)
}

func TestEndToEndMultithreaded(t *testing.T) {
	s := workload.MustLoad("lusearch", 0.5)
	cfg := DefaultRunConfig()
	run, err := Run(s.Program, s.Threads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(s.Program, run, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Threads) != len(s.Threads) {
		t.Fatalf("threads: %d", len(an.Threads))
	}
	for tid := range an.Threads {
		sim := similarity(an, run.Oracle, tid)
		t.Logf("thread %d: steps=%d truth=%d sim=%.3f",
			tid, len(an.Threads[tid].Steps), run.Oracle.Len(tid), sim)
		if sim < 0.5 {
			t.Errorf("thread %d similarity %.3f too low", tid, sim)
		}
	}
}

func TestEndToEndWithLossAndRecovery(t *testing.T) {
	s := workload.MustLoad("h2", 1.0)
	cfg := DefaultRunConfig()
	cfg.PT.BufBytes = 16 << 10 // small buffers force loss
	run, err := Run(s.Program, s.Threads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lost uint64
	for _, tr := range run.Traces {
		lost += tr.LostBytes()
	}
	if lost == 0 {
		t.Skip("no loss at this configuration; loss-specific assertions skipped")
	}
	an, err := Analyze(s.Program, run, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	totalSegments, recovered := 0, 0
	for _, th := range an.Threads {
		totalSegments += len(th.Flows)
		recovered += th.RecoveredSteps
	}
	if totalSegments <= len(an.Threads) {
		t.Error("loss should create segmentation")
	}
	if recovered == 0 {
		t.Error("recovery produced nothing despite loss")
	}
}

func TestRecoveryAblationImprovesAccuracy(t *testing.T) {
	s := workload.MustLoad("batik", 1.0)
	cfg := DefaultRunConfig()
	cfg.PT.BufBytes = 16 << 10
	run, err := Run(s.Program, s.Threads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lost uint64
	for _, tr := range run.Traces {
		lost += tr.LostBytes()
	}
	if lost == 0 {
		t.Skip("no loss; ablation not meaningful")
	}
	with, err := Analyze(s.Program, run, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	pcfgOff := core.DefaultPipelineConfig()
	pcfgOff.Recovery.Disable = true
	without, err := Analyze(s.Program, run, pcfgOff)
	if err != nil {
		t.Fatal(err)
	}
	simWith := similarity(with, run.Oracle, 0)
	simWithout := similarity(without, run.Oracle, 0)
	t.Logf("with recovery %.3f, without %.3f", simWith, simWithout)
	if simWith < simWithout {
		t.Errorf("recovery reduced accuracy: %.3f < %.3f", simWith, simWithout)
	}
}

func TestPublicProfilesFromAnalysis(t *testing.T) {
	s := workload.MustLoad("jython", 0.3)
	run, err := Run(s.Program, s.Threads, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(s.Program, run, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Threads) == 0 {
		t.Fatal("no threads")
	}

	cov := profile.ComputeCoverage(s.Program, an.Threads)
	if cov.Ratio() <= 0 || cov.Ratio() > 1 {
		t.Errorf("coverage ratio %f", cov.Ratio())
	}
	hot := profile.HotMethods(s.Program, an.Threads, 10)
	if len(hot) == 0 {
		t.Error("no hot methods")
	}
	edges := profile.EdgeProfile(s.Program, an.Threads)
	if len(edges) == 0 {
		t.Error("no edges")
	}
	tree := profile.CallTree(s.Program, an.Threads)
	if tree.TotalCalls() == 0 {
		t.Error("empty call tree")
	}
	pp := profile.ComputePathProfile(s.Program, an.Threads)
	if len(pp.Counts) == 0 {
		t.Error("no path counts")
	}
}

func TestAnalyzeRequiresTraces(t *testing.T) {
	s := workload.MustLoad("fop", 0.1)
	cfg := DefaultRunConfig()
	cfg.DisableTracing = true
	run, err := Run(s.Program, s.Threads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(s.Program, run, core.DefaultPipelineConfig()); err == nil {
		t.Fatal("Analyze accepted a run without traces")
	}
}

func TestRunVerifiesProgram(t *testing.T) {
	// A structurally broken program must be rejected before execution.
	p := &bytecode.Program{}
	b := bytecode.NewBuilder("T", "bad", 0)
	b.Iconst(1) // falls off the end
	m, _ := b.Build()
	p.AddMethod(m)
	p.Entry = m.ID
	if _, err := Run(p, nil, DefaultRunConfig()); err == nil {
		t.Fatal("broken program accepted")
	}
}

func TestOracleAccessors(t *testing.T) {
	s := workload.MustLoad("luindex", 0.1)
	run, err := Run(s.Program, s.Threads, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	o := run.Oracle
	if o.NumThreads() != 1 || o.Len(0) == 0 {
		t.Fatal("oracle empty")
	}
	if len(o.Keys(0)) != o.Len(0) || len(o.TimedKeys(0)) != o.Len(0) {
		t.Error("accessor lengths disagree")
	}
	counts := o.MethodCounts(len(s.Program.Methods))
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != int64(o.Len(0)) {
		t.Errorf("method counts sum %d != events %d", total, o.Len(0))
	}
	tks := o.TimedKeys(0)
	for i := 1; i < len(tks); i++ {
		if tks[i].TSC < tks[i-1].TSC {
			t.Fatal("oracle timestamps regress within a thread")
		}
	}
}

func TestThreadSpecsWithArgs(t *testing.T) {
	src := `
method T.add(2) returns int {
    iload 0
    iload 1
    iadd
    ireturn
}
method T.main(0) {
    return
}
entry T.main
`
	p := bytecode.MustAssemble(src)
	run, err := Run(p, []vm.ThreadSpec{
		{Method: p.MethodByName("T.add").ID, Args: []int32{3, 4}},
		{Method: p.MethodByName("T.add").ID, Args: []int32{10, -4}},
	}, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.ThreadResults[0] != 7 || run.Stats.ThreadResults[1] != 6 {
		t.Errorf("results: %v", run.Stats.ThreadResults)
	}
}

func TestEndToEndWithPDAEngine(t *testing.T) {
	// The full pipeline with the context-sensitive (PDA) matcher engaged
	// must work end to end and not lose accuracy relative to the NFA on
	// a real subject.
	s := workload.MustLoad("batik", 0.3)
	run, err := Run(s.Program, s.Threads, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	score := func(useCtx bool) float64 {
		pcfg := core.DefaultPipelineConfig()
		pcfg.UseCallContext = useCtx
		an, err := Analyze(s.Program, run, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		return similarity(an, run.Oracle, 0)
	}
	nfa, pda := score(false), score(true)
	t.Logf("NFA=%.3f PDA=%.3f", nfa, pda)
	if pda+0.02 < nfa {
		t.Errorf("PDA pipeline notably worse: %.3f vs %.3f", pda, nfa)
	}
}
