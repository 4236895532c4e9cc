package jportal

import (
	"jportal/internal/conc"
	"jportal/internal/core"
	"jportal/internal/meta"
	"jportal/internal/trace"
)

// The staged session (DESIGN.md §12) stitches on the caller's goroutine
// and analyzes on one conc.Pool of WorkerCount() workers, each with its
// own match scratch. Drain and Close post the thread deltas the stitcher
// emits to their thread's strand, whose tasks run in post order, never
// two at once, on whichever worker is free; Close posts each thread's
// Finish last. Each thread's deltas therefore reach its analyzer in
// emission order, which is why the output is byte-identical to batch
// Analyze for every worker count.
//
// The tasks a strand spawns — each closed segment's reconstruction and
// recovery prep, and Finish's per-hole recovery, per-flow step copies and
// coverage-fold ranges — are plain pool tasks. Workers take strand tasks
// first, since deltas are what close segments, and a strand task waiting
// for its plain tasks runs queued ones meanwhile, so a session computes
// on exactly WorkerCount() goroutines. Plain tasks write only their own
// slots, so which worker runs one never changes the output.
//
// Metadata safety: in a live run the VM keeps exporting compiled-method
// blobs into its snapshot while workers decode, so workers never read the
// caller's snapshot. Each thread decodes against its own replica of the
// base clone OpenSession takes, and AddBlobs appends to the session's
// blob log. A delta carries the log as it stood when it was routed, and
// the replica exports what it has not seen of it before decoding (§3.2
// dump-before-use). A replica's export log thus depends only on the
// blobs delivered, which keeps checkpoint blob indexes stable.
//
// Quiescence: checkpoint export and restore wait until every strand is
// empty and idle (conc.Pool.Quiesce); the analyzers are then the caller's
// until the next delta is posted. Segment tasks may still run; they touch
// only their own job.

// stageQueue bounds the deltas waiting for the workers, per worker: Drain
// and Close block while stageQueue×WorkerCount() are queued. Enough to
// keep the workers busy while the caller stitches, small enough to bound
// in-flight memory.
const stageQueue = 256

// sessionThread is one thread of a session: its strand, and the analyzer
// and snapshot replica only the strand's tasks touch (and the caller's
// goroutine at quiescence). seen counts the blobs of the session's log
// the replica has been offered.
type sessionThread struct {
	strand *conc.Strand[*core.MatchScratch]
	a      *core.ThreadAnalyzer
	snap   *meta.Snapshot
	seen   int
}

// thread returns thread t, creating the strands up to it. Caller's
// goroutine only.
func (s *Session) thread(t int) *sessionThread {
	for len(s.threads) <= t {
		s.threads = append(s.threads, &sessionThread{strand: s.pool.NewStrand()})
	}
	return s.threads[t]
}

// analyzer returns th's analyzer — thread t's — after catching its
// replica up on blobs, creating both on first use. A blob the replica
// already holds, pointer-identical at its entry address, is skipped: the
// base clone may already hold it. Runs in th's strand, or at quiescence.
func (s *Session) analyzer(th *sessionThread, t int, blobs []*meta.CompiledMethod) *core.ThreadAnalyzer {
	if th.a == nil {
		th.snap = s.base.Clone()
		th.a = s.pipe.NewThreadAnalyzer(t, th.snap)
		th.a.SetLedger(s.ledger)
		th.a.SetPool(s.pool)
	}
	for _, b := range blobs[th.seen:] {
		if b != nil && th.snap.Compiled[b.EntryAddr()] != b {
			th.snap.Export(b)
		}
	}
	th.seen = len(blobs)
	return th.a
}

// route posts emitted thread deltas to their strands. Delta item slices
// are freshly built by the stitcher and never reused, so ownership
// transfers.
func (s *Session) route(deltas []trace.ThreadStream) {
	blobs := s.blobs
	for _, d := range deltas {
		th := s.thread(d.Thread)
		th.strand.Post(func(*core.MatchScratch) {
			s.analyzer(th, d.Thread, blobs).Feed(s.ctx, d.Items)
			s.hbEmitted.Add(1)
		})
	}
}

// catchUp makes every thread up to n (at least the stitcher's) and its
// analyzer, creating empty analyzers for threads that have sideband but
// no trace, each caught up on the whole blob log. Safe only at
// quiescence.
func (s *Session) catchUp(n int) {
	n = max(n, s.st.NumThreads(), len(s.threads))
	for t := range n {
		s.analyzer(s.thread(t), t, s.blobs)
	}
}
