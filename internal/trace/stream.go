// The streaming half of package trace: StreamStitcher performs the same
// per-core carve and cross-core stitch as SplitByThread, but incrementally,
// over chunks of trace items and sideband records as they arrive, with
// bounded buffering. Its output — the concatenation of the per-thread
// deltas it emits — is byte-identical to the batch split for every chunking
// and every watermark schedule, including the §6/§7.2 timestamp-
// inconsistency misattributions, which depend only on the packet and
// sideband timestamps, not on delivery granularity.
//
// The incremental carve is sound because of three monotonicity facts:
//
//   - sideband records are time-monotone per core, so once the caller
//     declares a watermark w for a core (every switch record with TSC < w
//     has been delivered), the scheduling-window boundaries below w are
//     final;
//   - the carve cursor wi only moves forward, so windows behind it can
//     never receive more items;
//   - a core's loss gaps are monotone (GapStart >= the previous GapEnd),
//     so a gap never writes into a window behind the cursor.
//
// Cross-core emission additionally requires that no other core can still
// produce a window ordering before the candidate: each core exposes a
// frontier — the (start, core, window) key of its earliest still-open
// window, or its watermark if it has no sideband yet — and a closed window
// is emitted only once it precedes every frontier. That reproduces the
// batch stable sort (start, then core, then window index) exactly.
package trace

import (
	"fmt"
	"sort"

	"jportal/internal/conc"
	"jportal/internal/fault"
	"jportal/internal/source"
	"jportal/internal/vm"
)

// stWindow is a closed scheduling window awaiting cross-core emission.
type stWindow struct {
	thread int
	start  uint64
	end    uint64 // next record's TSC on the core, or the carve cursor for the last window
	rec    int    // index into the core's collapsed sideband records
	items  []source.Item
}

// coreStitch is the per-core incremental carve state.
type coreStitch struct {
	// tr is the source's packet vocabulary (shared with the stitcher).
	tr *source.Traits
	// recs is the collapsed sideband (consecutive same-thread records
	// merged, first kept), append-only so window indices are stable.
	recs []vm.SwitchRecord
	// mark is the sideband watermark: every record with TSC < mark has
	// been delivered.
	mark uint64
	// pending holds fed items not yet carved.
	pending []source.Item
	// wi and tsc are the carve cursor: the current window index and the
	// last timestamp seen (from TSC packets and gap ends).
	wi  int
	tsc uint64
	// open maps window index -> items for windows at or ahead of the
	// cursor (the cursor window plus any windows a gap pre-populated).
	open map[int][]source.Item
	// closed holds carved windows behind the cursor, in window order,
	// awaiting cross-core emission.
	closed []stWindow
	// fo caches the earliest thread-owned window index >= wi (idle
	// windows are dropped at close, so they never gate emission).
	fo int
}

// StreamStitcher incrementally segregates per-core trace chunks into
// per-thread streams. Feed order within a core must be export order;
// cores and sideband may interleave arbitrarily.
type StreamStitcher struct {
	// tr is the source's packet vocabulary (which kinds carry timestamps).
	tr        *source.Traits
	cores     []coreStitch
	maxThread int
	finished  bool
	// lastThread tracks, per core, the thread of the last kept sideband
	// record (collapseRuns, incrementally). -2 = none yet.
	lastThread []int
	// lastTSC tracks, per core, the timestamp of the last delivered
	// sideband record: the monotonicity gate torn/reordered records are
	// quarantined at.
	lastTSC []uint64
	// ledger, when set, receives quarantine entries (dropped sideband
	// records, crashed carves). Nil drops them.
	ledger *fault.Ledger
	// emittedEnd tracks, per thread, the end of the last window emitted for
	// it. A thread occupies one core at a time, so on an honest run its
	// windows are disjoint in time; a window starting before the previous
	// one ended is the cross-core clock-skew signature (§6 timestamp
	// inconsistency) and is reported to the ledger. Report-only: the window
	// still emits, so output stays batch-identical.
	emittedEnd map[int]uint64
}

// NewStreamStitcher creates a stitcher for cores 0..ncores-1 (the core
// numbering of the source collector and of RunResult.Traces, which the
// batch path keeps sorted — the stitcher breaks window-start ties by core
// number the way the batch stable sort breaks them by slice position). tr
// identifies the time-bearing packet kinds of the trace's source.
func NewStreamStitcher(ncores int, tr *source.Traits) *StreamStitcher {
	s := &StreamStitcher{
		tr:         tr,
		cores:      make([]coreStitch, ncores),
		lastThread: make([]int, ncores),
		lastTSC:    make([]uint64, ncores),
		emittedEnd: make(map[int]uint64),
	}
	for i := range s.cores {
		s.cores[i].tr = tr
		s.cores[i].open = make(map[int][]source.Item)
		s.lastThread[i] = -2
	}
	return s
}

// SetLedger attaches the quarantine ledger exclusions are reported to.
func (s *StreamStitcher) SetLedger(l *fault.Ledger) { s.ledger = l }

// AddSideband delivers scheduler switch records (any cores, in the global
// order the VM recorded them, which is time-monotone per core). Records for
// cores beyond the stitcher's range still widen the thread space, exactly
// as the batch split sizes its output from the whole sideband. A record
// that violates per-core time monotonicity — torn or reordered sideband —
// is quarantined rather than trusted: the incremental carve's soundness
// rests on that monotonicity (see the package comment), so accepting the
// record would silently misattribute trace bytes across threads.
func (s *StreamStitcher) AddSideband(recs []vm.SwitchRecord) {
	for _, r := range recs {
		if r.Thread > s.maxThread {
			s.maxThread = r.Thread
		}
		if r.Core < 0 || r.Core >= len(s.cores) {
			continue
		}
		if r.TSC < s.lastTSC[r.Core] {
			s.ledger.Add(fault.Entry{
				Reason: fault.ReasonSidebandOrder, Thread: r.Thread, Core: r.Core,
				Detail: fmt.Sprintf("switch record tsc %d after %d", r.TSC, s.lastTSC[r.Core]),
			})
			continue
		}
		s.lastTSC[r.Core] = r.TSC
		if s.lastThread[r.Core] == r.Thread {
			continue // collapseRuns: same owner as the previous record
		}
		s.lastThread[r.Core] = r.Thread
		s.cores[r.Core].recs = append(s.cores[r.Core].recs, r)
	}
}

// Watermark declares that every sideband record for core with TSC < w has
// been delivered. Watermarks only move forward.
func (s *StreamStitcher) Watermark(core int, w uint64) {
	if core < 0 || core >= len(s.cores) {
		return
	}
	if w > s.cores[core].mark {
		s.cores[core].mark = w
	}
}

// Feed delivers one chunk of a core's exported trace, in export order.
func (s *StreamStitcher) Feed(core int, items []source.Item) error {
	if s.finished {
		return fmt.Errorf("trace: Feed after Finish")
	}
	if core < 0 || core >= len(s.cores) {
		return fmt.Errorf("trace: chunk for core %d, stitcher has %d cores", core, len(s.cores))
	}
	c := &s.cores[core]
	c.pending = append(c.pending, items...)
	return nil
}

// BufferedItems returns the number of trace items currently held (pending
// carve plus carved-but-unemitted windows) — the stitcher's in-flight
// trace memory.
func (s *StreamStitcher) BufferedItems() int {
	n := 0
	for i := range s.cores {
		c := &s.cores[i]
		n += len(c.pending)
		for _, items := range c.open {
			n += len(items)
		}
		for _, w := range c.closed {
			n += len(w.items)
		}
	}
	return n
}

// NumThreads returns the thread-space size seen so far (at least 1, like
// the batch split).
func (s *StreamStitcher) NumThreads() int { return s.maxThread + 1 }

// carve advances the per-core carve over pending items. Unless final, it
// stops at the first item whose window assignment could still be changed
// by sideband at or above the watermark: a TSC packet at or past the mark,
// or a gap ending at or past it. Items without their own timestamp always
// carve — they join the cursor window, which is already determined.
func (c *coreStitch) carve(final bool) {
	if len(c.recs) == 0 {
		// No sideband for this core yet: no window exists to place items
		// in. The batch split drops such a core's trace entirely.
		if final {
			c.pending = nil
		}
		return
	}
	done := 0
	// Hoist the cursor window's slice out of the map: most items append to
	// the current window, so keeping it in a local avoids two map operations
	// per item. The local is written back whenever the cursor moves or a gap
	// needs map access to other windows.
	cur, curWi := c.open[c.wi], c.wi
	for done < len(c.pending) {
		it := c.pending[done]
		if it.IsGap() {
			if !final && it.GapEnd() >= c.mark {
				break
			}
			c.open[curWi] = cur
			clipGap(c.recs, &it, func(j int, g source.Item) { c.open[j] = append(c.open[j], g) })
			c.tsc = it.GapEnd()
			if w := windowAt(c.recs, c.tsc); w > c.wi {
				c.wi = w
			}
			cur, curWi = c.open[c.wi], c.wi
			done++
			continue
		}
		if c.tr.IsTime(it.Packet.Kind) {
			if !final && it.Packet.TSC >= c.mark {
				break
			}
			c.tsc = it.Packet.TSC
			if w := windowAt(c.recs, c.tsc); w > c.wi {
				c.open[curWi] = cur
				c.wi = w
				cur, curWi = c.open[c.wi], c.wi
			}
		}
		cur = append(cur, it)
		done++
	}
	c.open[curWi] = cur
	if done > 0 {
		// Compact rather than re-slice so the carved prefix is freed —
		// the whole point is bounding in-flight memory.
		rest := len(c.pending) - done
		copy(c.pending, c.pending[done:])
		c.pending = c.pending[:rest]
	}
	c.close(final)
}

// close moves windows the cursor has passed (all of them when final) from
// open to the closed queue, dropping empty and idle-owned ones like the
// batch split does.
func (c *coreStitch) close(final bool) {
	for j := range c.open {
		if !final && j >= c.wi {
			continue
		}
		items := c.open[j]
		delete(c.open, j)
		if len(items) > 0 && c.recs[j].Thread >= 0 {
			// The window runs until the core's next switch record; the last
			// window on a core has no successor, so the carve cursor (the
			// newest timestamp actually seen inside it) bounds it instead.
			end := c.recs[j].TSC
			if j+1 < len(c.recs) {
				end = c.recs[j+1].TSC
			} else if c.tsc > end {
				end = c.tsc
			}
			c.closed = append(c.closed, stWindow{
				thread: c.recs[j].Thread, start: c.recs[j].TSC, end: end, rec: j, items: items,
			})
		}
	}
	// Keep the closed queue in window order; map iteration above is not.
	sort.Slice(c.closed, func(i, j int) bool { return c.closed[i].rec < c.closed[j].rec })
}

// clockSkewSlack is how far (in cycles) a thread's window may reach back
// into its previous window before the overlap is reported as clock skew.
// Honest runs still show sub-hundred-cycle overlaps at migration
// boundaries — switch timestamps carry scheduler jitter (vm
// SwitchJitterCycles, the §7.2 inconsistency) — so the threshold sits an
// order of magnitude above jitter scale and three below the timeslice.
const clockSkewSlack = 1024

// emitKey orders windows globally: start time, then core, then window
// index — the batch stable sort's tie-breaking.
type emitKey struct {
	start uint64
	core  int
	rec   int
}

func keyLess(a, b emitKey) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	if a.core != b.core {
		return a.core < b.core
	}
	return a.rec < b.rec
}

// frontier returns the lower bound on any window this core can still emit
// beyond its closed queue, and whether such a window is possible at all.
func (s *StreamStitcher) frontier(core int) (emitKey, bool) {
	c := &s.cores[core]
	if s.finished {
		return emitKey{}, false
	}
	if len(c.recs) == 0 {
		// The first record, when it arrives, will carry TSC >= mark.
		return emitKey{start: c.mark, core: core}, true
	}
	// The earliest window that can still emit is the first thread-owned
	// window at or after the cursor: idle-owned windows only ever drop
	// their items, so an idle core must not gate global emission.
	if c.fo < c.wi {
		c.fo = c.wi
	}
	for c.fo < len(c.recs) && c.recs[c.fo].Thread < 0 {
		c.fo++
	}
	if c.fo < len(c.recs) {
		return emitKey{start: c.recs[c.fo].TSC, core: core, rec: c.fo}, true
	}
	// Every known window from the cursor on is idle-owned; the next
	// emittable window starts no earlier than the newest record and the
	// watermark (per-core sideband is time-monotone).
	lo := c.mark
	if t := c.recs[len(c.recs)-1].TSC; t > lo {
		lo = t
	}
	return emitKey{start: lo, core: core, rec: len(c.recs)}, true
}

// emit pops all globally-safe windows off the closed queues, appending
// items to per-thread delta streams. Returns only threads that received
// items, in thread order. Callers carve first.
func (s *StreamStitcher) emit(final bool) []ThreadStream {
	var deltas map[int][]source.Item
	for {
		best := -1
		var bestKey emitKey
		for i := range s.cores {
			if len(s.cores[i].closed) == 0 {
				continue
			}
			k := emitKey{start: s.cores[i].closed[0].start, core: i, rec: s.cores[i].closed[0].rec}
			if best < 0 || keyLess(k, bestKey) {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			break
		}
		if !final {
			safe := true
			for i := range s.cores {
				fk, ok := s.frontier(i)
				if ok && !keyLess(bestKey, fk) {
					safe = false
					break
				}
			}
			if !safe {
				break
			}
		}
		w := s.cores[best].closed[0]
		s.cores[best].closed = s.cores[best].closed[1:]
		if prev, ok := s.emittedEnd[w.thread]; ok && w.start+clockSkewSlack < prev {
			s.ledger.Add(fault.Entry{
				Reason: fault.ReasonClockSkew, Thread: w.thread, Core: best,
				Detail: fmt.Sprintf("window [%d,%d) overlaps previous window ending %d", w.start, w.end, prev),
			})
		}
		if w.end > s.emittedEnd[w.thread] {
			s.emittedEnd[w.thread] = w.end
		}
		if deltas == nil {
			deltas = make(map[int][]source.Item)
		}
		deltas[w.thread] = append(deltas[w.thread], w.items...)
	}
	if len(deltas) == 0 {
		return nil
	}
	out := make([]ThreadStream, 0, len(deltas))
	for t := 0; t <= s.maxThread; t++ {
		if items, ok := deltas[t]; ok {
			out = append(out, ThreadStream{Thread: t, Items: items})
		}
	}
	return out
}

// safeCarve runs one core's carve with panic containment: a carve that
// crashes (hostile timestamps driving the cursor somewhere impossible)
// quarantines that core's pending items instead of killing the process —
// the other cores' threads still analyse. It runs inside the per-core
// fan-out goroutines, where an escaped panic would be fatal.
func (s *StreamStitcher) safeCarve(i int, final bool) {
	defer func() {
		if r := recover(); r != nil {
			c := &s.cores[i]
			s.ledger.Add(fault.Entry{
				Reason: fault.ReasonStageCrash, Thread: -1, Core: i,
				Items: len(c.pending), Bytes: source.PayloadBytes(c.pending),
				Detail: fmt.Sprintf("carve: %v", r),
			})
			c.pending = nil
		}
	}()
	s.cores[i].carve(final)
}

// Drain emits every thread delta that is final under the current
// watermarks. Call after feeding a batch of chunks/sideband and advancing
// watermarks.
func (s *StreamStitcher) Drain() []ThreadStream {
	if s.finished {
		return nil
	}
	for i := range s.cores {
		s.safeCarve(i, false)
	}
	return s.emit(false)
}

// Finish declares the input complete and returns the remaining deltas.
// After Finish the stitcher rejects further feeding.
func (s *StreamStitcher) Finish() []ThreadStream {
	return s.FinishWorkers(1)
}

// FinishWorkers is Finish with the final per-core carve fanned out on up
// to workers goroutines (cores are independent). The emitted deltas are
// identical for any worker count.
func (s *StreamStitcher) FinishWorkers(workers int) []ThreadStream {
	if s.finished {
		return nil
	}
	conc.ParallelFor(conc.Workers(workers), len(s.cores), func(i int) {
		s.safeCarve(i, true)
	})
	s.finished = true
	return s.emit(true)
}
