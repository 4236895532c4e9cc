//go:build !race

package jportal_test

// TestKernelAllocs is the steady-state allocation guard of the offline
// hot path. Allocs/op is a property of the code alone, not of the machine
// or its load, so unlike wall-clock it can gate every `go test` run. Time
// is measured by the benchmark/ module instead (DESIGN.md §12). The race
// detector adds its own allocations, hence the build tag.

import (
	"bytes"
	"math"
	"testing"

	"jportal"
	"jportal/internal/bytecode"
	"jportal/internal/cfg"
	"jportal/internal/core"
	"jportal/internal/source"
	"jportal/internal/streamfmt"
	"jportal/internal/trace"
	"jportal/internal/workload"
)

// Per-kernel allocs/op bounds: the band the retired `jportal bench -base`
// guard applied, baseline × 1.2 + 1, to the last kernel snapshot it
// recorded (0, 0, 0 and 218 allocs/op on go1.24, linux/amd64). The Collect
// bound is the same band over 67 allocs/op, measured for both sources when
// each had its own collector copy (go1.24, linux/amd64); the E-Trace
// WalkerDecode measured 0 then, like PT's. The Recover and
// RecovererNoBoundary bounds are the same band over 68 and 1 allocs/op,
// measured once chainFill planned its hops and NewRecoverer skipped
// threads without a boundary; before, they measured 146 and 6 (go1.24,
// linux/amd64). The MatchFreshScratch bound is the same band over 6
// allocs/op, measured once the NFA layers shared one arena sized for the
// token run; with one slice per layer it measured 4522 (go1.24,
// linux/amd64). The StreamfmtDecode bound is the same band over 0
// allocs/op, measured with 32-byte items (go1.24, linux/amd64). The
// MatchLocated bound is the same band over 0 allocs/op, measured with the
// one-state located step and a warm scratch (go1.24, linux/amd64). The
// ReconstructSegment bound is the same band over 2 allocs/op (the flow and
// its node slice), measured once candidateStarts kept a located token's
// start state in the scratch; it measured 2 before too, the inlined
// one-element slice having stayed on the stack (go1.24, linux/amd64). The
// PrepareSegment and NewRecoverer bounds are the same band over 13 and 3
// allocs/op, measured once each segment's prep built its own anchor index
// (go1.24, linux/amd64). The ReconstructPieces bound is the same band over
// 2 allocs/op (the flow and its node slice), measured once reconstruction
// cut segments into pieces and kept the piece records in the scratch
// (go1.24, linux/amd64).
const (
	maxAllocsMatchFromScratch    = 1
	maxAllocsTokenize            = 1
	maxAllocsWalkerDecode        = 1
	maxAllocsCarveStitch         = 262
	maxAllocsCollect             = 81
	maxAllocsRecover             = 82
	maxAllocsRecovererNoBoundary = 2
	maxAllocsMatchFreshScratch   = 8
	maxAllocsStreamfmtDecode     = 1
	maxAllocsMatchLocated        = 1
	maxAllocsReconstructSegment  = 3
	maxAllocsPrepareSegment      = 16
	maxAllocsNewRecoverer        = 4
	maxAllocsReconstructPieces   = 3
)

func TestKernelAllocs(t *testing.T) {
	check := func(name string, bound float64, runs int, fn func()) {
		t.Helper()
		got := testing.AllocsPerRun(runs, fn)
		t.Logf("kernel %s: %.0f allocs/op (bound %.0f)", name, got, bound)
		if got > bound {
			t.Errorf("kernel %s: %.0f allocs/op exceeds bound %.0f", name, got, bound)
		}
	}

	// MatchFromScratch: the NFA over a genuine ICFG cycle, caller-held
	// scratch (§4).
	prog := bytecode.MustAssemble(nfaLoopSrc)
	m := core.NewMatcher(cfg.BuildICFG(prog, cfg.DefaultOptions()))
	toks := nfaLoopTokens()
	starts := m.NodesWithOp(toks[0].Op)
	sc := m.NewScratch()
	check("MatchFromScratch", maxAllocsMatchFromScratch, 100, func() {
		if r := m.MatchFromScratch(sc, starts, toks); !r.Complete {
			t.Fatalf("rejected at %d of %d", r.Matched, len(toks))
		}
	})

	// MatchFreshScratch: the same match on a new scratch per op, as a
	// worker's first segment of a thread sees it.
	check("MatchFreshScratch", maxAllocsMatchFreshScratch, 20, func() {
		if r := m.MatchFromScratch(m.NewScratch(), starts, toks); !r.Complete {
			t.Fatalf("rejected at %d of %d", r.Matched, len(toks))
		}
	})

	// The remaining kernels run over a real trace: h2 at scale 0.25.
	s := workload.MustLoad("h2", 0.25)
	run, src, items := busiestThread(t, s, source.DefaultID)

	// Tokenize: a persistent tokenizer lowering the busiest thread's
	// events one 512-event chunk per op; Finish closes the open segment
	// so the token arena advances instead of growing one segment.
	events := append([]source.Event(nil), src.NewDecoder(run.Snapshot).Decode(items)...)
	var chunks [][]source.Event
	for off := 0; off < len(events); off += 512 {
		chunks = append(chunks, events[off:min(off+512, len(events))])
	}
	tk := core.NewStreamTokenizer(s.Program)
	op := 0
	check("Tokenize", maxAllocsTokenize, 200, func() {
		tk.Feed(chunks[op%len(chunks)])
		tk.Finish()
		op++
	})

	// MatchLocated: the NFA over the busiest thread's first segment, whose
	// tokens are almost all located (lowered from JIT code), on a reused
	// scratch: the one-state located step (§4).
	segs, _ := core.TokenizeEvents(s.Program, events)
	ltoks := segs[0].Tokens
	lm := core.NewMatcher(cfg.BuildICFG(s.Program, cfg.DefaultOptions()))
	lstarts := lm.NodesWithOp(ltoks[0].Op)
	lsc := lm.NewScratch()
	located := 0
	for i := range ltoks {
		if ltoks[i].Located() {
			located++
		}
	}
	t.Logf("MatchLocated: %d tokens, %d located", len(ltoks), located)
	check("MatchLocated", maxAllocsMatchLocated, 20, func() {
		if r := lm.MatchFromScratch(lsc, lstarts, ltoks); r.Matched == 0 {
			t.Fatal("first segment's first token matched no start")
		}
	})

	// ReconstructSegment: the projection of that thread's largest segment
	// (§4) on a warm scratch, as a pool worker reconstructs segment
	// after segment: the flow and its node slice, nothing per match run.
	big := segs[0]
	for _, seg := range segs {
		if len(seg.Tokens) > len(big.Tokens) {
			big = seg
		}
	}
	check("ReconstructSegment", maxAllocsReconstructSegment, 20, func() {
		if f := lm.ReconstructSegmentScratch(lsc, big); f.Runs == 0 {
			t.Fatal("largest segment projected no run")
		}
	})

	// WalkerDecode: one full packet-stream decode of the busiest thread
	// per op, on each source's own run of h2; the persistent decoder
	// reuses its event buffer.
	for _, id := range source.Registered() {
		run, src, items := busiestThread(t, workload.MustLoad("h2", 0.25), id)
		dec := src.NewDecoder(run.Snapshot)
		check("WalkerDecode/"+id, maxAllocsWalkerDecode, 50, func() {
			dec.Decode(items)
		})
	}

	// Collect: one sink-mode collector per op, driven through a fixed
	// synthetic event sequence (lossless: the default buffer) and
	// finished; the sink discards its chunks.
	for _, id := range source.Registered() {
		src, err := source.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		check("Collect/"+id, maxAllocsCollect, 50, func() {
			col := src.NewCollector(source.DefaultCollectorConfig(), 1)
			col.SetSink(64, func(int, []source.Item) {})
			tsc := uint64(100)
			col.PGE(0, 0x7f40_0000_0000, tsc)
			for i := 0; i < 2000; i++ {
				tsc += 7
				col.TNT(0, 0x7f40_0000_0004, i%3 == 0, tsc)
				if i%5 == 0 {
					tsc += 3
					col.TIP(0, 0x7f40_0000_1000, tsc)
					tsc += 3
					col.TIP(0, 0x7f40_0000_0000, tsc)
				}
				if i%31 == 0 {
					col.SwitchMark(0, tsc)
				}
			}
			col.FUP(0, 0x7f40_0000_0004, tsc+1)
			col.TIP(0, 0x7f40_0000_1000, tsc+2)
			col.PGD(0, 0, tsc+3)
			col.Finish(tsc + 10)
		})
	}

	// Recover: one RecoverHole per hole per op over the ablation's
	// recovery segments (7 flows, 6 timestamped holes, each filled from a
	// CS: 216 recovered steps), with the recoverer built once.
	rm, rflows := recoverySegments(t)
	rec := core.NewRecoverer(rm, rflows, core.DefaultRecoveryConfig())
	check("Recover", maxAllocsRecover, 50, func() {
		steps := 0
		for i := 0; i < len(rflows)-1; i++ {
			f := rec.RecoverHole(i)
			if f.Method != core.FillCS {
				t.Fatalf("hole %d: fill method %v, want FillCS", i, f.Method)
			}
			steps += len(f.Steps)
		}
		if steps != 216 {
			t.Fatalf("recovered %d steps, want 216", steps)
		}
	})

	// RecovererNoBoundary: NewRecoverer over a single flow, which has no
	// hole to fill.
	check("RecovererNoBoundary", maxAllocsRecovererNoBoundary, 100, func() {
		core.NewRecoverer(rm, rflows[:1], core.DefaultRecoveryConfig())
	})

	// PrepareSegment: the recovery prep of batik x0.5's largest segment
	// (tier caches, MatchKeys and anchor index) on a fresh copy per op,
	// as a session worker prepares each segment when it closes. A
	// recoverer over that segment and a nil flow prepares just it.
	bs := workload.MustLoad("batik", 0.5)
	brun, bsrc, bitems := busiestThread(t, bs, source.DefaultID)
	bsegs, _ := core.TokenizeEvents(bs.Program, bsrc.NewDecoder(brun.Snapshot).Decode(bitems))
	bbig := bsegs[0]
	for _, seg := range bsegs {
		if len(seg.Tokens) > len(bbig.Tokens) {
			bbig = seg
		}
	}
	t.Logf("PrepareSegment: %d segments, the largest %d tokens", len(bsegs), len(bbig.Tokens))
	var prepared []*core.SegmentFlow
	check("PrepareSegment", maxAllocsPrepareSegment, 10, func() {
		seg := &core.Segment{Tokens: bbig.Tokens, Clock: bbig.Clock}
		prepared = []*core.SegmentFlow{{Seg: seg}, nil}
		core.NewRecoverer(nil, prepared, core.DefaultRecoveryConfig())
	})

	// ReconstructPieces: the projection of that same segment, which the
	// reconstruction cuts into pieces at located tokens, on a warm
	// scratch: the pieces and their witness overrides live in the
	// scratch, so it allocates what a one-piece segment does.
	bm := core.NewMatcher(cfg.BuildICFG(bs.Program, cfg.DefaultOptions()))
	bsc := bm.NewScratch()
	pieces := jportal.PieceCount(bbig.Tokens)
	t.Logf("ReconstructPieces: %d tokens in %d pieces", len(bbig.Tokens), pieces)
	if pieces < 3 {
		t.Fatalf("batik's largest segment cuts into %d pieces, want 3 or more", pieces)
	}
	check("ReconstructPieces", maxAllocsReconstructPieces, 10, func() {
		if f := bm.ReconstructSegmentScratch(bsc, bbig); f.Runs == 0 {
			t.Fatal("largest segment projected no run")
		}
	})

	// NewRecoverer: over flows already prepared, it only collects their
	// keys and indexes, so its allocs/op are the same for the ablation's
	// seven small flows and for batik's largest segment.
	check("NewRecoverer/ablation", maxAllocsNewRecoverer, 100, func() {
		core.NewRecoverer(rm, rflows, core.DefaultRecoveryConfig())
	})
	check("NewRecoverer/batik", maxAllocsNewRecoverer, 100, func() {
		core.NewRecoverer(nil, prepared, core.DefaultRecoveryConfig())
	})

	// CarveStitch: one full incremental stitch per op — sideband,
	// infinite watermarks, per-core feeds, finish.
	ncores := 1
	for i := range run.Traces {
		ncores = max(ncores, run.Traces[i].Core+1)
	}
	check("CarveStitch", maxAllocsCarveStitch, 20, func() {
		st := trace.NewStreamStitcher(ncores, src.Traits())
		st.AddSideband(run.Sideband)
		for c := 0; c < ncores; c++ {
			st.Watermark(c, math.MaxUint64)
		}
		for j := range run.Traces {
			if err := st.Feed(run.Traces[j].Core, run.Traces[j].Items); err != nil {
				t.Fatal(err)
			}
		}
		st.Finish()
	})

	// StreamfmtDecode: one chunk record per op, holding the first 1024
	// items of the busiest core's trace, decoded into a reused items slice
	// as the archive reader decodes every chunk record.
	busiest := &run.Traces[0]
	for j := range run.Traces {
		if len(run.Traces[j].Items) > len(busiest.Items) {
			busiest = &run.Traces[j]
		}
	}
	var chunk bytes.Buffer
	if err := streamfmt.NewRawEncoder(&chunk, ncores).Feed(busiest.Core, busiest.Items[:min(1024, len(busiest.Items))]); err != nil {
		t.Fatal(err)
	}
	var decoded []source.Item
	check("StreamfmtDecode", maxAllocsStreamfmtDecode, 100, func() {
		r, n, err := streamfmt.DecodeInto(chunk.Bytes(), decoded, src.Traits())
		if err != nil || n != chunk.Len() || r.Kind != streamfmt.KindChunk {
			t.Fatalf("decode: kind %v, %d of %d bytes, err %v", r.Kind, n, chunk.Len(), err)
		}
		decoded = r.Items
	})
}

// busiestThread runs s on the given trace source (default buffers, no
// oracle) and returns the run, its source and the stitched item stream of
// the thread with the most items.
func busiestThread(t *testing.T, s *workload.Subject, id string) (*jportal.RunResult, source.Source, []source.Item) {
	t.Helper()
	rcfg := jportal.DefaultRunConfig()
	rcfg.CollectOracle = false
	rcfg.Source = id
	run, err := jportal.Run(s.Program, s.Threads, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	run.Snapshot.Seal()
	src, err := run.Source()
	if err != nil {
		t.Fatal(err)
	}
	threads := trace.SplitByThread(run.Traces, run.Sideband, src.Traits())
	var busiest int
	for i := range threads {
		if len(threads[i].Items) > len(threads[busiest].Items) {
			busiest = i
		}
	}
	if len(threads) == 0 || len(threads[busiest].Items) == 0 {
		t.Fatalf("h2 on %s produced no stitched items", id)
	}
	return run, src, threads[busiest].Items
}
