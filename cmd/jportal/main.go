// Command jportal is the command-line front end of the JPortal
// reproduction: run workloads under simulated PT tracing, decode and
// reconstruct their control flow, derive profiles, and regenerate the
// paper's tables and figures.
//
// Usage:
//
//	jportal subjects                      list the benchmark subjects
//	jportal run      <subject|file.jasm>  run with PT collection, print stats
//	jportal analyze  <subject|file.jasm>  run + offline reconstruction + accuracy
//	jportal report   <subject|file.jasm>  run + reconstruction + client profiles
//	jportal collect  <subject|file.jasm>  run, streaming the trace into an archive
//	jportal decode   <dir>                offline reconstruction of an archive
//	jportal stream   <dir>                incremental analysis of an archive
//	jportal serve                         networked trace-ingest server
//	jportal push     <dir>                upload an archive to a server
//	jportal scrub                         verify/repair archives in a data dir
//	jportal disasm   <file.jasm>          assemble and disassemble a program
//	jportal chaos                         fault-injection coverage sweep
//	jportal exp      <table1|table2|table3|table4|table5|figure7|all>
//
// Flags (where applicable): -scale, -buf (paper-label MB), -top, -out
// (collect's archive directory), -workers (offline-phase worker count,
// 0 = GOMAXPROCS). stream takes -follow to tail an archive a collector is
// still writing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"jportal"
	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/experiments"
	"jportal/internal/metrics"
	"jportal/internal/profile"
	"jportal/internal/source"
	"jportal/internal/vm"
	"jportal/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "subjects":
		err = cmdSubjects(args)
	case "run":
		err = cmdRun(args)
	case "analyze":
		err = cmdAnalyze(args)
	case "report":
		err = cmdReport(args)
	case "collect":
		err = cmdCollect(args)
	case "decode":
		err = cmdDecode(args)
	case "stream":
		err = cmdStream(args)
	case "serve":
		err = cmdServe(args)
	case "push":
		err = cmdPush(args)
	case "scrub":
		err = cmdScrub(args)
	case "coordinate":
		err = cmdCoordinate(args)
	case "fleet":
		err = cmdFleet(args)
	case "disasm":
		err = cmdDisasm(args)
	case "chaos":
		err = cmdChaos(args)
	case "exp":
		err = cmdExp(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "jportal: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jportal %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `jportal - control-flow tracing for JVM-like programs with simulated Intel PT

commands:
  subjects                     list benchmark subjects (Table 1)
  run     <subject|file.jasm>  run under PT collection and print statistics
  analyze <subject|file.jasm>  run, decode, reconstruct; print accuracy
  report  <subject|file.jasm>  run, reconstruct, print client profiles
  collect <subject|file.jasm>  online phase only: run, streaming traces+metadata
                               into an archive as the run progresses (-out DIR,
                               -chunk items per trace chunk record)
  decode  <dir>                offline phase only: analyze a collected archive
  stream  <dir>                incremental analysis of an archive
                               (-follow tails an archive still being written,
                                and SIGINT then prints the full analysis of
                                every record read so far; -poll sets the
                                follow-mode poll interval, -workers sets the
                                analysis worker count)
  serve                        trace-ingest server: agents push archives over TCP
                               (-listen, -http metrics sidecar, -data, -queue,
                                -drain shutdown budget;
                                -coordinator/-node/-advertise join a fleet)
  push    <dir>                upload an archive to a jportal serve
                               (-addr list rotated on failure, -id session,
                                -retry-budget, resumable; -live runs a subject
                                and streams its records as they appear;
                                -addr may name coordinators or any fleet node)
  scrub                        verify every session archive in a data dir and
                               repair what fails: truncate torn tails to the
                               acknowledged frontier, re-fetch from -peers,
                               quarantine the rest (-data, -repair, -rate
                               pacing, -retain-age/-retain-bytes)
  coordinate                   fleet control plane: nodes register under
                               heartbeat leases, sessions consistent-hash onto
                               them, clients are redirected to their owner
                               (-listen handshakes, -http control, -lease TTL;
                                -data makes state durable and lets replicas
                                sharing it elect a leader, -leader-lease TTL)
  fleet   nodes|metrics|report query a coordinator (-coordinator URL list) or
                               aggregate the shared data dir (-data, -top)
                               into a fleet-wide coverage/hot-method report
  disasm  <file.jasm>          assemble and pretty-print a program
  chaos                        fault-injection sweep: coverage vs fault rate
                               (-subjects, -seed, -rates, -scale, -cores;
                                deterministic for a fixed seed; -fleet pushes
                                archives through a network-faulted ingest
                                fleet instead, -disk through storage-faulted
                                ingest plus scrub-and-repair, -sessions per
                                rate)
  exp     <experiment>         regenerate a paper table/figure
                               (table1 table2 table3 table4 table5 figure7 paths all)

common flags: -scale F (workload size), -buf MB (paper-label buffer),
              -top N (hot-method count), -out DIR (collect's archive),
              -workers N (offline-phase parallelism, 0 = GOMAXPROCS),
              -source S (trace backend: intel-pt, riscv-etrace)
`)
}

// sourceFlagHelp builds the -source usage string from the registry, so new
// backends show up without touching the CLI.
func sourceFlagHelp() string {
	return fmt.Sprintf("trace source backend (%s; default %s)",
		strings.Join(source.Registered(), ", "), source.DefaultID)
}

// loadTarget resolves a subject name or a .jasm file into a program plus
// thread specs.
func loadTarget(name string, scale float64) (*bytecode.Program, []vm.ThreadSpec, string, error) {
	if strings.HasSuffix(name, ".jasm") {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, nil, "", err
		}
		p, err := bytecode.Assemble(string(src))
		if err != nil {
			return nil, nil, "", err
		}
		return p, []vm.ThreadSpec{{Method: p.Entry}}, filepath.Base(name), nil
	}
	s, err := workload.Load(name, workload.Scale(scale))
	if err != nil {
		return nil, nil, "", err
	}
	return s.Program, s.Threads, s.Name, nil
}

func cmdSubjects(args []string) error {
	fs := flag.NewFlagSet("subjects", flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "workload scale")
	fs.Parse(args)
	rows, err := experiments.Table1(experiments.Options{Scale: workload.Scale(*scale)})
	if err != nil {
		return err
	}
	experiments.PrintTable1(os.Stdout, rows)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "workload scale")
	buf := fs.Int("buf", 128, "paper-label buffer size (MB)")
	src := fs.String("source", "", sourceFlagHelp())
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("need a subject or .jasm file")
	}
	prog, threads, name, err := loadTarget(fs.Arg(0), *scale)
	if err != nil {
		return err
	}
	cfg := jportal.DefaultRunConfig()
	cfg.PT.BufBytes = uint64(*buf) << (20 - experiments.BufScaleShift)
	cfg.Source = *src
	run, err := jportal.Run(prog, threads, cfg)
	if err != nil {
		return err
	}
	st := run.Stats
	fmt.Printf("%s: %d threads, %d bytecodes (%.1f%% interpreted), %d cycles\n",
		name, len(threads), st.ExecutedBytecodes,
		100*float64(st.InterpBytecodes)/float64(st.ExecutedBytecodes), st.Cycles)
	fmt.Printf("compilations=%d evictions=%d uncaught=%d\n",
		st.Compilations, st.Evictions, st.UncaughtThrows)
	var exported, lost uint64
	for _, tr := range run.Traces {
		exported += tr.Bytes()
		lost += tr.LostBytes()
	}
	fmt.Printf("trace: generated=%dKB exported=%dKB lost=%dKB (%.1f%%)\n",
		run.GenBytes/1024, exported/1024, lost/1024,
		100*float64(lost)/float64(run.GenBytes))
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "workload scale")
	buf := fs.Int("buf", 128, "paper-label buffer size (MB)")
	workers := fs.Int("workers", 0, "offline-phase workers (0 = GOMAXPROCS)")
	src := fs.String("source", "", sourceFlagHelp())
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("need a subject or .jasm file")
	}
	prog, threads, name, err := loadTarget(fs.Arg(0), *scale)
	if err != nil {
		return err
	}
	cfg := jportal.DefaultRunConfig()
	cfg.PT.BufBytes = uint64(*buf) << (20 - experiments.BufScaleShift)
	cfg.Source = *src
	run, err := jportal.Run(prog, threads, cfg)
	if err != nil {
		return err
	}
	pcfg := core.DefaultPipelineConfig()
	pcfg.Workers = *workers
	an, err := jportal.Analyze(prog, run, pcfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s: offline analysis of %d thread(s)\n", name, len(an.Threads))
	for _, th := range an.Threads {
		truth := run.Oracle.Keys(th.Thread)
		var got []metrics.Key
		for _, s := range th.Steps {
			got = append(got, metrics.StepKey(int32(s.Method), s.PC))
		}
		sim := metrics.Similarity(got, truth, 4096)
		fmt.Printf("  thread %d: segments=%d tokens=%d steps=%d (recovered %d) "+
			"similarity=%.1f%% decode=%.0fms recover=%.0fms\n",
			th.Thread, th.Decode.Segments, th.Decode.Tokens, len(th.Steps),
			th.RecoveredSteps, sim*100,
			float64(th.DecodeTime.Milliseconds()), float64(th.RecoverTime.Milliseconds()))
	}
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "workload scale")
	top := fs.Int("top", 10, "hot methods to list")
	workers := fs.Int("workers", 0, "offline-phase workers (0 = GOMAXPROCS)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("need a subject or .jasm file")
	}
	prog, threads, name, err := loadTarget(fs.Arg(0), *scale)
	if err != nil {
		return err
	}
	run, err := jportal.Run(prog, threads, jportal.DefaultRunConfig())
	if err != nil {
		return err
	}
	pcfg := core.DefaultPipelineConfig()
	pcfg.Workers = *workers
	an, err := jportal.Analyze(prog, run, pcfg)
	if err != nil {
		return err
	}
	steps := 0
	for _, th := range an.Threads {
		steps += len(th.Steps)
	}
	fmt.Printf("=== %s: control-flow profile (%d steps) ===\n", name, steps)

	cov := profile.ComputeCoverage(prog, an.Threads)
	fmt.Printf("statement coverage: %.1f%% (%d/%d instructions, %d/%d methods)\n",
		cov.Ratio()*100, cov.CoveredInstrs, cov.TotalInstrs,
		cov.CoveredMethods, len(prog.Methods))

	fmt.Printf("hot methods (top %d by executed instructions):\n", *top)
	for i, mid := range profile.HotMethods(prog, an.Threads, *top) {
		fmt.Printf("  %2d. %s\n", i+1, prog.Methods[mid].FullName())
	}

	edges := profile.EdgeProfile(prog, an.Threads)
	n := 5
	if len(edges) < n {
		n = len(edges)
	}
	fmt.Printf("hottest control-flow edges:\n")
	for _, e := range edges[:n] {
		fmt.Printf("  %s @%d -> @%d  x%d\n",
			prog.Methods[e.Method].FullName(), e.From, e.To, e.Count)
	}

	tree := profile.CallTree(prog, an.Threads)
	fmt.Printf("call tree: %d total calls, max depth %d\n", tree.TotalCalls(), tree.Depth())

	pp := profile.ComputePathProfile(prog, an.Threads)
	paths := 0
	for _, c := range pp.Counts {
		paths += len(c)
	}
	fmt.Printf("path profile: %d distinct Ball-Larus paths across %d methods\n",
		paths, len(pp.Counts))
	return nil
}

func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "workload scale")
	buf := fs.Int("buf", 128, "paper-label buffer size (MB)")
	out := fs.String("out", "jportal-run", "archive directory")
	chunk := fs.Int("chunk", 0, "trace items per chunk record (0 = default)")
	src := fs.String("source", "", sourceFlagHelp())
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("need a subject or .jasm file")
	}
	prog, threads, name, err := loadTarget(fs.Arg(0), *scale)
	if err != nil {
		return err
	}
	cfg := jportal.DefaultRunConfig()
	cfg.CollectOracle = false // the offline phase has no oracle in production
	cfg.PT.BufBytes = uint64(*buf) << (20 - experiments.BufScaleShift)
	cfg.Source = *src
	cfg.SinkChunkItems = *chunk
	run, err := jportal.CollectArchive(*out, prog, threads, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s: archive sealed (%dKB generated) at %s\n", name, run.GenBytes/1024, *out)
	return nil
}

func cmdDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	workers := fs.Int("workers", 0, "offline-phase workers (0 = GOMAXPROCS)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("need an archive directory")
	}
	prog, run, err := jportal.LoadRun(fs.Arg(0))
	if err != nil {
		return err
	}
	pcfg := core.DefaultPipelineConfig()
	pcfg.Workers = *workers
	an, err := jportal.Analyze(prog, run, pcfg)
	if err != nil {
		return err
	}
	for _, th := range an.Threads {
		fmt.Printf("thread %d: segments=%d tokens=%d steps=%d (recovered %d) "+
			"decode=%.0fms recover=%.0fms\n",
			th.Thread, th.Decode.Segments, th.Decode.Tokens, len(th.Steps),
			th.RecoveredSteps,
			float64(th.DecodeTime.Milliseconds()), float64(th.RecoverTime.Milliseconds()))
	}
	cov := profile.ComputeCoverage(prog, an.Threads)
	fmt.Printf("statement coverage: %.1f%%; hot methods:", cov.Ratio()*100)
	for _, mid := range profile.HotMethods(prog, an.Threads, 5) {
		fmt.Printf(" %s", prog.Methods[mid].FullName())
	}
	fmt.Println()
	return nil
}

func cmdStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	workers := fs.Int("workers", 0, "offline-phase workers (0 = GOMAXPROCS)")
	follow := fs.Bool("follow", false, "tail an archive a collector is still writing")
	poll := fs.Duration("poll", 50*time.Millisecond, "poll interval in follow mode")
	ckptEvery := fs.Int("ckpt-every", 0, "write a session checkpoint every N chunk records (0 = off unless -resume)")
	ckptPath := fs.String("ckpt", "", "checkpoint file path (default <dir>/session.ckpt when checkpointing)")
	resume := fs.Bool("resume", false, "resume from the checkpoint if one exists (implies checkpointing)")
	stall := fs.Duration("stall", 0, "watchdog stall window (0 = no watchdog)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("need an archive directory")
	}
	pcfg := core.DefaultPipelineConfig()
	pcfg.Workers = *workers
	opts := jportal.StreamOptions{
		Follow:          *follow,
		Poll:            *poll,
		CheckpointEvery: *ckptEvery,
		Resume:          *resume,
		StallAfter:      *stall,
		// Notices go to stderr so stdout (the analysis summary, diffed by
		// the CI golden smoke) is identical with and without a resume.
		Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, "stream: "+format+"\n", a...) },
	}
	if *ckptPath != "" {
		opts.CheckpointPath = *ckptPath
	} else if *resume || *ckptEvery > 0 {
		opts.CheckpointPath = filepath.Join(fs.Arg(0), jportal.CheckpointFileName)
	}
	// In follow mode a SIGINT stops the tail cleanly: ctx stops the
	// reading only, so the analysis of everything read so far is complete
	// and flushed below instead of being discarded.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	prog, an, err := jportal.AnalyzeStreamArchiveOpts(ctx, fs.Arg(0), pcfg, opts)
	interrupted := err != nil && errors.Is(err, context.Canceled) && an != nil
	if err != nil && !interrupted {
		return err
	}
	if interrupted {
		fmt.Println("stream: interrupted; partial analysis of the records read so far:")
	}
	for _, th := range an.Threads {
		fmt.Printf("thread %d: segments=%d tokens=%d steps=%d (recovered %d)\n",
			th.Thread, th.Decode.Segments, th.Decode.Tokens, len(th.Steps), th.RecoveredSteps)
	}
	cov := profile.ComputeCoverage(prog, an.Threads)
	fmt.Printf("statement coverage: %.1f%%; hot methods:", cov.Ratio()*100)
	for _, mid := range profile.HotMethods(prog, an.Threads, 5) {
		fmt.Printf(" %s", prog.Methods[mid].FullName())
	}
	fmt.Println()
	return nil
}

func cmdDisasm(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("need a .jasm file")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	p, err := bytecode.Assemble(string(src))
	if err != nil {
		return err
	}
	fmt.Print(bytecode.Disassemble(p))
	return nil
}

func cmdExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "workload scale")
	workers := fs.Int("workers", 0, "per-subject/offline-phase workers (0 = GOMAXPROCS)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("need an experiment name")
	}
	o := experiments.Options{Scale: workload.Scale(*scale), Workers: *workers}
	which := fs.Arg(0)
	runOne := func(name string) error {
		switch name {
		case "table1":
			rows, err := experiments.Table1(o)
			if err != nil {
				return err
			}
			experiments.PrintTable1(os.Stdout, rows)
		case "table2":
			rows, err := experiments.Table2(o)
			if err != nil {
				return err
			}
			experiments.PrintTable2(os.Stdout, rows)
		case "table3":
			rows, err := experiments.Table3(o)
			if err != nil {
				return err
			}
			experiments.PrintTable3(os.Stdout, rows)
		case "table4":
			rows, err := experiments.Table4(o)
			if err != nil {
				return err
			}
			experiments.PrintTable4(os.Stdout, rows)
		case "table5":
			rows, err := experiments.Table5(o)
			if err != nil {
				return err
			}
			experiments.PrintTable5(os.Stdout, rows)
		case "figure7":
			rows, err := experiments.Figure7(o)
			if err != nil {
				return err
			}
			experiments.PrintFigure7(os.Stdout, rows)
		case "paths":
			rows, err := experiments.PathAccuracy(o)
			if err != nil {
				return err
			}
			experiments.PrintPathAccuracy(os.Stdout, rows)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}
	if which == "all" {
		for _, name := range []string{"table1", "table2", "figure7", "table3", "table4", "table5", "paths"} {
			if err := runOne(name); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	return runOne(which)
}
