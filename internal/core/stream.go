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
// packet stream is fed in chunks and decoded and tokenized incrementally;
// Finish reconstructs every decoded segment and then runs §5 hole
// recovery. The decoded segments stay pending until Finish, so
// reconstruction and recovery see the thread's complete segment sequence —
// the §5 recoverer indexes every flow of the thread as a candidate
// continuation for every hole (an early segment can splice a late hole).
// Chunking is invisible: Finish returns byte-identical results for any
// chunking and any worker count.
type ThreadAnalyzer struct {
	p        *Pipeline
	snap     *meta.Snapshot
	dec      source.Decoder
	tk       *tokenizer
	res      *ThreadResult
	pend     []*Segment
	finished bool
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
	// Atomic: reconstruction workers set it concurrently.
	timedOut atomic.Bool
}

// NewThreadAnalyzer starts the analysis of one thread's stream.
func (p *Pipeline) NewThreadAnalyzer(thread int, snap *meta.Snapshot) *ThreadAnalyzer {
	return &ThreadAnalyzer{
		p:    p,
		snap: snap,
		dec:  p.Source().NewDecoder(snap),
		tk:   newTokenizer(p.Prog),
		res:  &ThreadResult{Thread: thread},
	}
}

// SetLedger attaches the quarantine ledger exclusions are reported to.
func (a *ThreadAnalyzer) SetLedger(l *fault.Ledger) { a.ledger = l }

// Feed decodes and tokenizes the next chunk of the thread's stitched
// stream; completed segments wait for Finish. Once ctx is cancelled the
// chunk is quarantined under the deadline reason instead of decoded, so a
// timed-out analysis stops consuming CPU but stays structurally valid —
// Finish still returns a partial ThreadResult.
func (a *ThreadAnalyzer) Feed(ctx context.Context, items []source.Item) {
	if a.finished {
		panic("core: ThreadAnalyzer.Feed after Finish")
	}
	if ctx.Err() != nil {
		a.quarantineDeadline(len(items), source.PayloadBytes(items), "feed cancelled")
		return
	}
	t0 := time.Now()
	a.safeFeed(items)
	a.harvestFaults()
	a.pend = append(a.pend, a.tk.take()...)
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
// a crash quarantines this chunk only, rebuilds the decoder (its walking
// state is what crashed) and splits the token stream behind a synthetic
// desync, so the thread — and every other thread — keeps analysing. It
// runs inside the Session's per-thread fan-out, where an escaped panic
// would kill the process.
func (a *ThreadAnalyzer) safeFeed(items []source.Item) {
	defer func() {
		if r := recover(); r != nil {
			a.ledger.Add(fault.Entry{
				Reason: fault.ReasonStageCrash, Thread: a.res.Thread, Core: -1,
				Items: len(items), Bytes: source.PayloadBytes(items),
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
	a.tk.feed(a.dec.DecodeChunk(items))
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

// reconstruct projects the pending segments onto the ICFG as the thread's
// flows, in segment order (slot-addressed, so identical for any worker
// count), and drops the segment references. Each worker brings its own
// match scratch. Segments whose turn comes after ctx is cancelled are
// quarantined (an empty, Quarantined flow — never nil, so slot addressing
// and hole bookkeeping stay intact) rather than projected.
func (a *ThreadAnalyzer) reconstruct(ctx context.Context) {
	if len(a.pend) == 0 {
		return
	}
	pend := a.pend
	a.pend = nil
	a.res.Flows = make([]*SegmentFlow, len(pend))
	var cancelled atomic.Int64
	conc.ParallelWork(a.p.Cfg.WorkerCount(), len(pend), a.p.Matcher.NewScratch,
		func(sc *MatchScratch, i int) {
			if ctx.Err() != nil {
				a.timedOut.Store(true)
				cancelled.Add(1)
				a.res.Flows[i] = quarantinedFlow(pend[i], a.p.Matcher.G)
				return
			}
			a.res.Flows[i] = a.safeReconstruct(sc, pend[i])
		})
	if n := cancelled.Load(); n > 0 {
		a.ledger.Add(fault.Entry{
			Reason: fault.ReasonDeadline, Thread: a.res.Thread, Core: -1,
			Count: int(n), Items: int(n), Detail: "reconstruction cancelled",
		})
	}
}

// safeReconstruct projects one segment with panic containment: a matcher
// crash (tokens from stale or hostile JIT metadata can carry PCs no ICFG
// node exists for) quarantines that segment — recorded as an empty,
// Quarantined flow so slot addressing and hole bookkeeping stay intact —
// instead of killing the worker pool.
func (a *ThreadAnalyzer) safeReconstruct(sc *MatchScratch, seg *Segment) (f *SegmentFlow) {
	defer func() {
		if r := recover(); r != nil {
			a.ledger.Add(fault.Entry{
				Reason: fault.ReasonStaleMetadata, Thread: a.res.Thread, Core: -1,
				Items:  len(seg.Tokens),
				Detail: fmt.Sprintf("reconstruct: %v", r),
			})
			f = quarantinedFlow(seg, a.p.Matcher.G)
		}
	}()
	return a.p.Matcher.ReconstructSegmentScratch(sc, seg)
}

// Finish flushes the decoder and tokenizer, reconstructs the segments,
// runs §5 hole recovery over the complete flow sequence, and merges the
// end-to-end profile. Repeated calls return the same result. Once ctx is
// cancelled, pending segments are quarantined instead of reconstructed and
// §5 recovery is skipped (every hole stays a hole — degradation, not
// failure), so a timed-out Close returns a partial-but-valid ThreadResult
// promptly.
func (a *ThreadAnalyzer) Finish(ctx context.Context) *ThreadResult {
	if a.finished {
		return a.res
	}
	a.finished = true
	res := a.res

	t0 := time.Now()
	a.tk.feed(a.dec.Flush())
	a.harvestFaults()
	a.pend = append(a.pend, a.tk.finish()...)
	ds := a.dec.Stats()
	st := a.tk.st
	st.NativeDesyncs = a.carriedDesyncs + ds.Desyncs
	st.MalformedPackets = a.carriedFaults + ds.FaultCount
	st.SkippedPackets = a.carriedSkipPkts + ds.SkippedPackets
	st.QuarantinedBytes = a.carriedSkipByte + ds.SkippedBytes
	res.Decode = st
	a.reconstruct(ctx)
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
		conc.ParallelFor(a.p.Cfg.WorkerCount(), len(res.Flows)-1, func(i int) {
			if ctx.Err() != nil {
				a.timedOut.Store(true)
				return // Fill zero value = FillNone: the hole stays open
			}
			res.Fills[i] = a.safeRecoverHole(rec, i)
		})
	}
	res.RecoverTime = time.Since(t1)

	// Merge the end-to-end profile from the per-flow steps and fills.
	mergeSteps(res)
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

// mergeSteps assembles the thread's final profile from flows and fills.
func mergeSteps(res *ThreadResult) {
	total := 0
	for i, f := range res.Flows {
		total += f.Matched()
		if i < len(res.Fills) {
			total += len(res.Fills[i].Steps)
		}
	}
	res.Steps = make([]Step, 0, total)
	for i, f := range res.Flows {
		before := len(res.Steps)
		res.Steps = f.AppendSteps(res.Steps)
		res.DecodedSteps += len(res.Steps) - before
		if i < len(res.Fills) && res.Fills[i].Method != FillNone {
			res.Steps = append(res.Steps, res.Fills[i].Steps...)
			res.RecoveredSteps += len(res.Fills[i].Steps)
		}
	}
}
