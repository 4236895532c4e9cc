package jportal

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"jportal/internal/bench"
	"jportal/internal/bytecode"
	"jportal/internal/cfg"
	"jportal/internal/core"
	"jportal/internal/meta"
	"jportal/internal/source"
	"jportal/internal/trace"
	"jportal/internal/workload"
)

// BenchOptions configures RunBenchSuite.
type BenchOptions struct {
	// PR stamps the snapshot (BENCH_<PR>.json).
	PR int
	// Quick runs the kernels only — with the same inputs as a full run,
	// so allocs/op stays comparable to a committed snapshot — and skips
	// the streaming and per-subject wall-clock sweeps.
	Quick bool
	// Scale is the streaming subject's workload scale (default 1.0).
	Scale float64
	// Workers is the streaming replay's worker count (default 8).
	Workers int
	// Reps is the repetition count for wall-clock measurements; the
	// minimum is recorded, which filters scheduler noise (default 3).
	Reps int
}

// benchLoopSrc is the MatchFromScratch kernel's subject: a loop whose
// token trace is a genuine ICFG cycle, so the matcher carries one long
// run end to end (same shape as the bench_test micro-benchmark).
const benchLoopSrc = `
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

func benchLoopTokens() []core.Token {
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

// runKernel wraps testing.Benchmark and converts its result.
func runKernel(name string, units int, fn func(b *testing.B)) bench.Kernel {
	r := testing.Benchmark(fn)
	k := bench.Kernel{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
	if units > 0 && k.NsPerOp > 0 {
		k.UnitsPerSec = float64(units) * 1e9 / k.NsPerOp
	}
	return k
}

// RunBenchSuite measures the hot-path steady-state kernels and (unless
// opts.Quick) the end-to-end streaming throughput and per-subject batch
// wall-clock, returning the BENCH_<n>.json snapshot (DESIGN.md §12).
func RunBenchSuite(opts BenchOptions) (*bench.Report, error) {
	if opts.Scale == 0 {
		opts.Scale = 1.0
	}
	if opts.Workers == 0 {
		opts.Workers = 8
	}
	if opts.Reps == 0 {
		opts.Reps = 3
	}
	rep := &bench.Report{
		PR:        opts.PR,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Quick:     opts.Quick,
	}

	// ---- Kernel: NFA MatchFromScratch (caller-held scratch, §4) ----
	prog := bytecode.MustAssemble(benchLoopSrc)
	m := core.NewMatcher(cfg.BuildICFG(prog, cfg.DefaultOptions()))
	toks := benchLoopTokens()
	starts := m.NodesWithOp(toks[0].Op)
	sc := m.NewScratch()
	rep.Kernels = append(rep.Kernels, runKernel("MatchFromScratch", len(toks), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r := m.MatchFromScratch(sc, starts, toks); !r.Complete {
				b.Fatalf("rejected at %d of %d", r.Matched, len(toks))
			}
		}
	}))

	// ---- Kernels over a real trace: Tokenize and the stitcher carve ----
	s := workload.MustLoad("h2", 0.25)
	rcfg := DefaultRunConfig()
	rcfg.CollectOracle = false
	run, err := Run(s.Program, s.Threads, rcfg)
	if err != nil {
		return nil, err
	}
	run.Snapshot.Seal()

	// Tokenize: decode the busiest thread's stitched stream to native
	// events once, then measure the steady-state lowering — a persistent
	// tokenizer fed the same events every op, completed segments
	// discarded — so the op cost is the token arena's, not setup's.
	src, err := run.Source()
	if err != nil {
		return nil, err
	}
	threads := trace.SplitByThread(run.Traces, run.Sideband, src.Traits())
	var busiest int
	for i := range threads {
		if len(threads[i].Items) > len(threads[busiest].Items) {
			busiest = i
		}
	}
	if len(threads) == 0 || len(threads[busiest].Items) == 0 {
		return nil, fmt.Errorf("bench: subject produced no stitched items")
	}
	events := append([]source.Event(nil),
		src.NewDecoder(run.Snapshot).Decode(threads[busiest].Items)...)
	const tokChunk = 512
	var chunks [][]source.Event
	for off := 0; off < len(events); off += tokChunk {
		end := off + tokChunk
		if end > len(events) {
			end = len(events)
		}
		chunks = append(chunks, events[off:end])
	}
	_, tstats := core.TokenizeEvents(s.Program, events)
	tokPerOp := tstats.Tokens / len(chunks)
	tk := core.NewStreamTokenizer(s.Program)
	rep.Kernels = append(rep.Kernels, runKernel("Tokenize", tokPerOp, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// One op = one event chunk lowered in steady state; Finish
			// closes the open segment so the slab advances instead of
			// growing one ever-larger segment, and Take-semantics drop
			// the output. The arena keeps this at ~1 alloc/op: the
			// completed-segments slice, plus a slab every 4096 tokens.
			tk.Feed(chunks[i%len(chunks)])
			tk.Finish()
		}
	}))

	// WalkerDecode: the neutral decode driver (internal/source.Walker)
	// behind every backend — one full packet-stream decode of the busiest
	// thread per op, with a persistent decoder so the reused event buffer
	// keeps the steady state allocation-free and the guard band pins the
	// refactored decode path.
	dec := src.NewDecoder(run.Snapshot)
	rep.Kernels = append(rep.Kernels, runKernel("WalkerDecode", len(threads[busiest].Items), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dec.Decode(threads[busiest].Items)
		}
	}))

	// Carve: one full incremental stitch — sideband, infinite
	// watermarks, per-core feeds, finish — per op.
	ncores := 1
	totalItems := 0
	for i := range run.Traces {
		if n := run.Traces[i].Core + 1; n > ncores {
			ncores = n
		}
		totalItems += len(run.Traces[i].Items)
	}
	rep.Kernels = append(rep.Kernels, runKernel("CarveStitch", totalItems, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := trace.NewStreamStitcher(ncores, src.Traits())
			st.AddSideband(run.Sideband)
			for c := 0; c < ncores; c++ {
				st.Watermark(c, math.MaxUint64)
			}
			for j := range run.Traces {
				if err := st.Feed(run.Traces[j].Core, run.Traces[j].Items); err != nil {
					b.Fatal(err)
				}
			}
			st.Finish()
		}
	}))

	if opts.Quick {
		return rep, nil
	}

	// ---- Streaming end-to-end: archive replay at opts.Workers ----
	dir, err := os.MkdirTemp("", "jportal-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	arch := filepath.Join(dir, "chunked")
	ss := workload.MustLoad("h2", workload.Scale(opts.Scale))
	var w *StreamArchiveWriter
	if _, err := RunWithSink(ss.Program, ss.Threads, DefaultRunConfig(),
		func(p *bytecode.Program, snap *meta.Snapshot, nc int) (TraceSink, error) {
			var err error
			w, err = CreateStreamArchive(arch, p, snap, nc)
			return w, err
		}); err != nil {
		return nil, err
	}
	if err := w.Seal(); err != nil {
		return nil, err
	}
	fi, err := os.Stat(filepath.Join(arch, "stream.jpt"))
	if err != nil {
		return nil, err
	}
	pcfg := core.DefaultPipelineConfig()
	pcfg.Workers = opts.Workers
	best := time.Duration(math.MaxInt64)
	var steps int64
	for r := 0; r < opts.Reps; r++ {
		t0 := time.Now()
		_, an, err := AnalyzeStreamArchive(arch, pcfg, false, 0)
		if err != nil {
			return nil, err
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		steps = 0
		for i := range an.Threads {
			steps += int64(len(an.Threads[i].Steps))
		}
	}
	sec := best.Seconds()
	rep.Streaming = append(rep.Streaming, bench.Streaming{
		Subject:         "h2",
		Scale:           opts.Scale,
		Workers:         opts.Workers,
		TraceBytes:      fi.Size(),
		WallMs:          sec * 1e3,
		TraceMBPerSec:   float64(fi.Size()) / (1 << 20) / sec,
		Bytecodes:       steps,
		BytecodesPerSec: float64(steps) / sec,
	})

	// ---- Per-subject batch wall-clock ----
	const subjScale = 0.5
	for _, name := range workload.Names() {
		sub := workload.MustLoad(name, subjScale)
		srun, err := Run(sub.Program, sub.Threads, rcfg)
		if err != nil {
			return nil, err
		}
		best := time.Duration(math.MaxInt64)
		for r := 0; r < opts.Reps; r++ {
			t0 := time.Now()
			if _, err := Analyze(sub.Program, srun, core.DefaultPipelineConfig()); err != nil {
				return nil, err
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		rep.Subjects = append(rep.Subjects, bench.Subject{
			Name: name, Scale: subjScale, WallMs: best.Seconds() * 1e3,
		})
	}
	return rep, nil
}
