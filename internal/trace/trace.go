// Package trace reassembles per-core PT traces into per-thread packet
// streams (paper §6, "Multi-Cores and Multi-Threads"): the scheduler's
// sideband thread-switch records carve each core's trace into windows, and
// each thread's windows are stitched together across cores in time order.
//
// Loss episodes need care: a gap recorded on one core can span many
// scheduling windows (the buffer may stay backlogged long after the thread
// that overflowed it migrated away), so each overlapped window receives the
// gap clipped to its own bounds — the thread only lost data while it was
// actually running there.
//
// Sideband timestamps are *not* perfectly consistent with the timestamps
// embedded in the trace (the machine adds deterministic jitter, mirroring
// the inconsistency the paper reports in §7.2), so packets adjacent to a
// switch boundary can be attributed to the wrong thread — an accuracy
// limiter JPortal inherits by design.
package trace

import (
	"sort"

	"jportal/internal/source"
	"jportal/internal/vm"
)

// ThreadStream is one thread's stitched packet stream.
type ThreadStream struct {
	Thread int
	Items  []source.Item
}

// window is a contiguous slice of one core's trace attributed to a thread.
type window struct {
	thread int
	start  uint64 // sideband timestamp ordering key
	items  []source.Item
}

// collapseRuns merges consecutive same-thread records, keeping the first.
func collapseRuns(recs []vm.SwitchRecord) []vm.SwitchRecord {
	out := recs[:0:0]
	for _, r := range recs {
		if n := len(out); n > 0 && out[n-1].Thread == r.Thread {
			continue
		}
		out = append(out, r)
	}
	return out
}

// SplitByThread segregates per-core traces into per-thread streams using
// the scheduler sideband. For a single-threaded program this degenerates to
// concatenating the (single) core windows in time order. tr identifies the
// time-bearing packet kinds of the trace's source (the only per-source
// knowledge the carve needs). It is the batch reference the incremental
// StreamStitcher is tested against, so it carves the cores serially.
func SplitByThread(cores []source.CoreTrace, sideband []vm.SwitchRecord, tr *source.Traits) []ThreadStream {
	perCore := make(map[int][]vm.SwitchRecord)
	maxThread := 0
	for _, r := range sideband {
		perCore[r.Core] = append(perCore[r.Core], r)
		if r.Thread > maxThread {
			maxThread = r.Thread
		}
	}

	var windows []window
	for ci := range cores {
		recs := perCore[cores[ci].Core]
		if len(recs) == 0 {
			continue
		}
		// Collapse consecutive records with the same owner (including
		// idle runs) so windowAt stays cheap.
		windows = append(windows, carveCore(&cores[ci], collapseRuns(recs), tr)...)
	}

	// Stitch each thread's windows in time order.
	sort.SliceStable(windows, func(i, j int) bool { return windows[i].start < windows[j].start })
	streams := make([]ThreadStream, maxThread+1)
	for i := range streams {
		streams[i].Thread = i
	}
	for _, w := range windows {
		s := &streams[w.thread]
		s.Items = append(s.Items, w.items...)
	}
	return streams
}

// carveCore slices one core's trace into scheduling windows owned by
// threads (the per-core half of SplitByThread). recs must already be
// collapsed.
func carveCore(ct *source.CoreTrace, recs []vm.SwitchRecord, tr *source.Traits) []window {
	wins := make([][]source.Item, len(recs))
	tsc := uint64(0)
	wi := 0
	for _, it := range ct.Items {
		if it.IsGap() {
			clipGap(recs, &it, func(j int, g source.Item) { wins[j] = append(wins[j], g) })
			tsc = it.GapEnd()
			if w := windowAt(recs, tsc); w > wi {
				wi = w
			}
			continue
		}
		if tr.IsTime(it.Packet.Kind) {
			tsc = it.Packet.TSC
			if w := windowAt(recs, tsc); w > wi {
				wi = w
			}
		}
		wins[wi] = append(wins[wi], it)
	}
	var out []window
	for i, items := range wins {
		if len(items) > 0 && recs[i].Thread >= 0 {
			out = append(out, window{thread: recs[i].Thread, start: recs[i].TSC, items: items})
		}
	}
	return out
}

// windowAt returns the index of the scheduling window of recs covering t.
// The stitcher calls it over the records known so far, which gives the
// batch result once the records below t are final.
func windowAt(recs []vm.SwitchRecord, t uint64) int {
	i := sort.Search(len(recs), func(i int) bool { return recs[i].TSC > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// clipGap distributes a loss marker to every scheduling window of recs it
// overlaps: each window j receives, through add, the gap clipped to the
// window's bounds, with the lost bytes apportioned by covered time. Pieces
// that clip to nothing are dropped.
func clipGap(recs []vm.SwitchRecord, it *source.Item, add func(j int, g source.Item)) {
	start, end, lost := it.GapStart(), it.GapEnd(), it.LostBytes()
	lo, hi := windowAt(recs, start), windowAt(recs, end)
	span := end - start
	for j := lo; j <= hi; j++ {
		gs, ge := start, end
		if j > lo {
			gs = recs[j].TSC
		}
		if j < hi && j+1 < len(recs) {
			ge = recs[j+1].TSC
		}
		if ge <= gs {
			continue
		}
		l := lost
		if span > 0 {
			l = lost * (ge - gs) / span
		}
		add(j, source.GapItem(l, gs, ge))
	}
}
