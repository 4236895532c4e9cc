package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"jportal/internal/conc"
	"jportal/internal/fault"
	"jportal/internal/meta"
	"jportal/internal/source"
)

// ThreadAnalyzer is the per-thread offline pipeline: one thread's stitched
// packet stream is fed in chunks and decoded and tokenized incrementally,
// and every segment the tokenizer closes becomes a segmentJob whose tasks
// reconstruct it and prepare it for §5 recovery. With a pool attached
// (SetPool) the tasks run as segments close, on whichever pool worker is
// free; without one they run inline in Finish. Finish waits for them (a
// thread's last segment closes only there) and then runs §5 hole recovery
// over the thread's complete segment sequence — the recoverer indexes
// every flow of the thread as a candidate continuation for every hole (an
// early segment can splice a late hole). Chunking and scheduling are
// invisible: Finish returns byte-identical results for any chunking, any
// worker count and any order the tasks run in.
type ThreadAnalyzer struct {
	p        *Pipeline
	snap     *meta.Snapshot
	dec      source.Decoder
	tk       *tokenizer
	res      *ThreadResult
	finished bool
	// jobs holds a job per closed segment, in segment order; tasks is the
	// group their tasks, and Finish's, run in (on the attached pool, or
	// inline when waited for).
	jobs  []*segmentJob
	tasks *conc.Group[*MatchScratch]
	// ledger, when set, receives quarantine entries (decode faults, stage
	// crashes). Nil drops them.
	ledger *fault.Ledger
	// harvested decoder-fault watermarks, so each Feed reports only the
	// new faults to the ledger.
	seenFaults  int
	seenSkipped uint64
	seenDesyncs int
	seenRegress int
	// carried* accumulate diagnostics of decoders discarded after a stage
	// crash, so Finish reports the whole thread.
	carriedDesyncs  int
	carriedFaults   int
	carriedSkipPkts int
	carriedSkipByte uint64
	// timedOut records that the caller's deadline cut this thread short.
	// Atomic: the session reads it from another goroutine.
	timedOut atomic.Bool
}

// feedChunk is how many items Feed decodes and tokenizes at a time, so
// the segments a long delta closes reach the pool while the rest of it
// is still being decoded.
const feedChunk = 4096

// segmentJob is the analysis of one closed segment, in two tasks that
// read only its tokens and so may run at once: its projection onto the
// ICFG (§4), and, when recovery is on, its recovery caches (tier
// abstractions, MatchKeys and anchor index; see NewRecoverer).
type segmentJob struct {
	seg *Segment
	// Written by the reconstruction task, read by Finish once the
	// analyzer's task group is done.
	flow      *SegmentFlow
	crash     string // why reconstruction panicked, for Finish's ledger entry
	cancelled bool
}

// takeSegments makes a job of each of segs, in segment order, and queues
// its tasks on the analyzer's group: reconstruction, and recovery prep
// when prepare is set. Once ctx is cancelled reconstruction gives the
// segment an empty, Quarantined flow instead — never nil, so slot
// addressing and hole bookkeeping stay intact — and prep is skipped.
// Ledger entries wait for Finish, so a checkpoint taken while tasks run
// never records a result it does not carry.
func (a *ThreadAnalyzer) takeSegments(ctx context.Context, segs []*Segment, prepare bool) {
	for _, seg := range segs {
		j := &segmentJob{seg: seg}
		a.jobs = append(a.jobs, j)
		a.tasks.Go(func(sc *MatchScratch) {
			if ctx.Err() != nil {
				j.flow, j.cancelled = quarantinedFlow(seg, a.p.Matcher.G), true
				return
			}
			j.flow, j.crash = a.safeReconstruct(sc, seg)
		})
		if prepare && !a.p.Cfg.Recovery.Disable {
			a.tasks.Go(func(*MatchScratch) {
				if ctx.Err() == nil {
					safePrepare(seg, a.p.Cfg.Recovery.AnchorLen)
				}
			})
		}
	}
}

// NewThreadAnalyzer starts the analysis of one thread's stream.
func (p *Pipeline) NewThreadAnalyzer(thread int, snap *meta.Snapshot) *ThreadAnalyzer {
	return &ThreadAnalyzer{
		p:     p,
		snap:  snap,
		dec:   p.Source().NewDecoder(snap),
		tk:    newTokenizer(p.Prog),
		res:   &ThreadResult{Thread: thread},
		tasks: conc.NewGroup[*MatchScratch](nil),
	}
}

// SetLedger attaches the quarantine ledger exclusions are reported to.
func (a *ThreadAnalyzer) SetLedger(l *fault.Ledger) { a.ledger = l }

// SetPool attaches the pool the analyzer's segment, hole and merge tasks
// run on, before the first Feed. Without one they run inline in Finish.
func (a *ThreadAnalyzer) SetPool(p *conc.Pool[*MatchScratch]) { a.tasks = conc.NewGroup(p) }

// Feed decodes and tokenizes the next chunk of the thread's stitched
// stream, feedChunk items at a time, queueing each segment that closes.
// Once ctx is cancelled the chunk is quarantined under the deadline reason
// instead of decoded, so a timed-out analysis stops consuming CPU but
// stays structurally valid — Finish still returns a partial ThreadResult.
func (a *ThreadAnalyzer) Feed(ctx context.Context, items []source.Item) {
	if a.finished {
		panic("core: ThreadAnalyzer.Feed after Finish")
	}
	if ctx.Err() != nil {
		a.quarantineDeadline(len(items), source.PayloadBytes(items), "feed cancelled")
		return
	}
	t0 := time.Now()
	a.safeFeed(ctx, items)
	a.harvestFaults()
	a.takeSegments(ctx, a.tk.take(), true) // what a crash's breakSegment closed
	a.res.DecodeTime += time.Since(t0)
}

// quarantineDeadline records input dropped because the caller's context
// expired and marks the thread timed out.
func (a *ThreadAnalyzer) quarantineDeadline(items int, bytes uint64, detail string) {
	a.timedOut.Store(true)
	a.ledger.Add(fault.Entry{
		Reason: fault.ReasonDeadline, Thread: a.res.Thread, Core: -1,
		Items: items, Bytes: bytes, Detail: detail,
	})
}

// TimedOut reports whether a deadline cut this thread's analysis short.
func (a *ThreadAnalyzer) TimedOut() bool { return a.timedOut.Load() }

// safeFeed runs the decode+tokenize of one chunk with panic containment:
// a crash quarantines the rest of this chunk only, from the sub-chunk that
// crashed on, rebuilds the decoder (its walking state is what crashed) and
// splits the token stream behind a synthetic desync, so the thread — and
// every other thread — keeps analysing. The tokens lowered before the
// crash, those of the chunk's earlier sub-chunks included, stay, so the
// ledger entry counts only the items dropped. It runs on a Session pool
// worker, where an escaped panic would kill the process.
func (a *ThreadAnalyzer) safeFeed(ctx context.Context, items []source.Item) {
	off := 0
	defer func() {
		if r := recover(); r != nil {
			dropped := items[off:]
			a.ledger.Add(fault.Entry{
				Reason: fault.ReasonStageCrash, Thread: a.res.Thread, Core: -1,
				Items: len(dropped), Bytes: source.PayloadBytes(dropped),
				Detail: fmt.Sprintf("decode: %v", r),
			})
			ds := a.dec.Stats()
			a.carriedDesyncs += ds.Desyncs
			a.carriedFaults += ds.FaultCount
			a.carriedSkipPkts += ds.SkippedPackets
			a.carriedSkipByte += ds.SkippedBytes
			a.seenFaults, a.seenSkipped, a.seenDesyncs = 0, 0, 0
			a.dec = a.p.Source().NewDecoder(a.snap)
			a.tk.breakSegment()
		}
	}()
	for ; off < len(items); off += feedChunk {
		a.tk.feed(a.dec.DecodeChunk(items[off:min(off+feedChunk, len(items))]))
		a.takeSegments(ctx, a.tk.take(), true)
	}
}

// harvestFaults reports the decode stage's new typed exclusions to the
// ledger: malformed packets (with the bytes skipped to the next PSB),
// lost-sync episodes, and per-thread time regressions.
func (a *ThreadAnalyzer) harvestFaults() {
	if a.ledger == nil {
		return
	}
	ds := a.dec.Stats()
	if n := ds.FaultCount; n > a.seenFaults {
		a.ledger.Add(fault.Entry{
			Reason: fault.ReasonMalformedPacket, Thread: a.res.Thread, Core: -1,
			Count: n - a.seenFaults, Bytes: ds.SkippedBytes - a.seenSkipped,
		})
		a.seenFaults = n
		a.seenSkipped = ds.SkippedBytes
	}
	if n := ds.Desyncs; n > a.seenDesyncs {
		a.ledger.Add(fault.Entry{
			Reason: fault.ReasonLostSync, Thread: a.res.Thread, Core: -1,
			Count: n - a.seenDesyncs,
		})
		a.seenDesyncs = n
	}
	if n := a.tk.st.TimeRegressions; n > a.seenRegress {
		a.ledger.Add(fault.Entry{
			Reason: fault.ReasonClockSkew, Thread: a.res.Thread, Core: -1,
			Count: n - a.seenRegress,
		})
		a.seenRegress = n
	}
}

// reconstruct queues the tasks of segs, the segments Finish closed, waits for
// every segment task on sc (running queued tasks meanwhile), and records
// the flows in segment order (slot-addressed, so identical for any worker
// count and any order the tasks ran in). A lone segment is not prepared
// for recovery: it has no hole. Segments whose turn came after ctx was
// cancelled are quarantined (an empty, Quarantined flow) rather than
// projected.
func (a *ThreadAnalyzer) reconstruct(ctx context.Context, sc *MatchScratch, segs []*Segment) {
	a.takeSegments(ctx, segs, len(a.jobs)+len(segs) > 1)
	a.tasks.Wait(sc)
	if len(a.jobs) == 0 {
		return
	}
	a.res.Flows = make([]*SegmentFlow, len(a.jobs))
	cancelled := 0
	for i, j := range a.jobs {
		a.res.Flows[i] = j.flow
		if j.crash != "" {
			a.ledger.Add(fault.Entry{
				Reason: fault.ReasonStaleMetadata, Thread: a.res.Thread, Core: -1,
				Items: len(j.seg.Tokens), Detail: j.crash,
			})
		}
		if j.cancelled {
			cancelled++
		}
	}
	a.jobs = nil
	if cancelled > 0 {
		a.timedOut.Store(true)
		a.ledger.Add(fault.Entry{
			Reason: fault.ReasonDeadline, Thread: a.res.Thread, Core: -1,
			Count: cancelled, Items: cancelled, Detail: "reconstruction cancelled",
		})
	}
}

// safeReconstruct projects one segment with panic containment: a matcher
// crash (tokens from stale or hostile JIT metadata can carry PCs no ICFG
// node exists for) quarantines that segment — recorded as an empty,
// Quarantined flow so slot addressing and hole bookkeeping stay intact —
// instead of killing the worker, and returns why.
func (a *ThreadAnalyzer) safeReconstruct(sc *MatchScratch, seg *Segment) (f *SegmentFlow, crash string) {
	defer func() {
		if r := recover(); r != nil {
			f, crash = quarantinedFlow(seg, a.p.Matcher.G), fmt.Sprintf("reconstruct: %v", r)
		}
	}()
	return a.p.Matcher.ReconstructSegmentScratch(sc, seg), ""
}

// safePrepare prepares seg for recovery with panic containment. A crash
// leaves the caches unset, and NewRecoverer prepares the segment again
// under its own containment, which reports it.
func safePrepare(seg *Segment, x int) {
	defer func() { _ = recover() }()
	seg.prepareRecovery(x)
}

// Finish flushes the decoder and tokenizer, waits for the segment tasks,
// runs §5 hole recovery over the complete flow sequence, and merges the
// end-to-end profile. sc is the calling pool worker's scratch (or, with
// no pool attached, one the caller owns), on which Finish runs queued
// tasks while it waits. Repeated calls return the same result.
// Once ctx is cancelled, segments not yet reconstructed are quarantined
// instead and §5 recovery is skipped (every hole stays a hole —
// degradation, not failure), so a timed-out Close returns a
// partial-but-valid ThreadResult promptly.
func (a *ThreadAnalyzer) Finish(ctx context.Context, sc *MatchScratch) *ThreadResult {
	if a.finished {
		return a.res
	}
	a.finished = true
	res := a.res

	t0 := time.Now()
	a.tk.feed(a.dec.Flush())
	a.harvestFaults()
	segs := a.tk.finish()
	ds := a.dec.Stats()
	st := a.tk.st
	st.NativeDesyncs = a.carriedDesyncs + ds.Desyncs
	st.MalformedPackets = a.carriedFaults + ds.FaultCount
	st.SkippedPackets = a.carriedSkipPkts + ds.SkippedPackets
	st.QuarantinedBytes = a.carriedSkipByte + ds.SkippedBytes
	res.Decode = st
	a.reconstruct(ctx, sc, segs)
	res.DecodeTime += time.Since(t0)

	t1 := time.Now()
	var rec *Recoverer
	if ctx.Err() == nil {
		rec = a.safeRecoverer()
	} else if a.timedOut.CompareAndSwap(false, true) {
		// The deadline landed between reconstruction and recovery: no
		// segment was cut, but recovery is skipped — record why.
		a.ledger.Add(fault.Entry{
			Reason: fault.ReasonDeadline, Thread: a.res.Thread, Core: -1,
			Detail: "recovery skipped",
		})
	}
	res.Fills = make([]Fill, len(res.Flows))
	if rec != nil {
		for i := range len(res.Flows) - 1 {
			a.tasks.Go(func(*MatchScratch) {
				if ctx.Err() != nil {
					a.timedOut.Store(true)
					return // Fill zero value = FillNone: the hole stays open
				}
				res.Fills[i] = a.safeRecoverHole(rec, i)
			})
		}
		a.tasks.Wait(sc)
	}
	res.RecoverTime = time.Since(t1)

	// Merge the end-to-end profile from the per-flow steps and fills.
	a.mergeSteps(sc)
	return res
}

// safeRecoverer builds the §5 recoverer with panic containment: if index
// construction crashes (hostile tokens), recovery is skipped for the whole
// thread — every hole stays a hole, which is degradation, not failure.
func (a *ThreadAnalyzer) safeRecoverer() (rec *Recoverer) {
	defer func() {
		if r := recover(); r != nil {
			a.ledger.Add(fault.Entry{
				Reason: fault.ReasonStageCrash, Thread: a.res.Thread, Core: -1,
				Detail: fmt.Sprintf("recoverer: %v", r),
			})
			rec = nil
		}
	}()
	return NewRecoverer(a.p.Matcher, a.res.Flows, a.p.Cfg.Recovery)
}

// safeRecoverHole fills one hole with panic containment: a crash leaves
// that hole unfilled and quarantines nothing else.
func (a *ThreadAnalyzer) safeRecoverHole(rec *Recoverer, i int) (fill Fill) {
	defer func() {
		if r := recover(); r != nil {
			a.ledger.Add(fault.Entry{
				Reason: fault.ReasonStageCrash, Thread: a.res.Thread, Core: -1,
				Detail: fmt.Sprintf("recover hole %d: %v", i, r),
			})
			fill = Fill{}
		}
	}()
	return rec.RecoverHole(i)
}

// mergeSteps assembles the thread's final profile from flows and fills:
// each flow's steps, then its fill's. Every flow's offset in the profile
// is summed up front, so the flows are copied in parallel, one task each,
// while sc's worker waits.
func (a *ThreadAnalyzer) mergeSteps(sc *MatchScratch) {
	res := a.res
	offs := make([]int, len(res.Flows)+1)
	for i, f := range res.Flows {
		n := f.Matched()
		res.DecodedSteps += n
		if i < len(res.Fills) && res.Fills[i].Method != FillNone {
			n += len(res.Fills[i].Steps)
			res.RecoveredSteps += len(res.Fills[i].Steps)
		}
		offs[i+1] = offs[i] + n
	}
	res.Steps = make([]Step, offs[len(res.Flows)])
	for i := range res.Flows {
		a.tasks.Go(func(*MatchScratch) {
			dst := res.Flows[i].AppendSteps(res.Steps[offs[i]:offs[i]:offs[i+1]])
			if i < len(res.Fills) && res.Fills[i].Method != FillNone {
				copy(res.Steps[offs[i]+len(dst):offs[i+1]], res.Fills[i].Steps)
			}
		})
	}
	a.tasks.Wait(sc)
}
