package jportal

import (
	"sync"
	"sync/atomic"

	"jportal/internal/core"
	"jportal/internal/meta"
	"jportal/internal/source"
	"jportal/internal/trace"
)

// The staged session (DESIGN.md §12) stitches on the caller's goroutine
// and analyzes on WorkerCount() analyzer workers, each fed through its own
// buffered channel:
//
//	caller (stitcher) ──work[w]──▶ analyzer workers
//	                                  │    ▲
//	                                  └segs┘
//
// Feed, AddSideband and Watermark apply straight to the StreamStitcher;
// Drain and Close route the thread deltas it emits to the workers, thread t
// to worker t mod WorkerCount(). Each thread's deltas therefore reach its
// analyzer in emission order through one FIFO channel, which is why the
// output is byte-identical to batch Analyze for every worker count.
//
// Segment queue: each segment an analyzer's tokenizer closes becomes a
// core.SegmentJob, queued on the shared segs queue once per task
// (reconstruction, recovery prep). A worker runs queued tasks whenever its
// own channel has no message waiting, on its own long-lived match scratch,
// so a thread's segments are analyzed on every worker while its deltas are
// still being decoded on one. Tasks are independent and their results
// slot-addressed, so which worker runs one never changes the output. A
// worker whose channel has closed keeps serving the queue until every
// worker's channel has closed and the queue is empty; what is left — each
// thread's last segment, closed only at Close — ThreadAnalyzer.Finish runs
// itself.
//
// Metadata safety: in a live run the VM keeps exporting compiled-method
// blobs into its snapshot while workers decode, so workers never read the
// caller's snapshot. Each worker owns a replica (meta.Snapshot.Clone), and
// blob deliveries are broadcast in-band: channel order guarantees a worker
// observes a blob before any delta that references it, mirroring §3.2's
// dump-before-use discipline.
//
// Quiescence: checkpoint export and restore need every worker idle.
// quiesce sends a sync message to each worker and returns once all of them
// have acknowledged it; the channel operations give the happens-before
// edges that make the analyzers readable (and writable, until the next
// delta or blob is sent) from the caller's goroutine, which owns the
// stitcher throughout.

// stageQueue is the capacity of every worker channel, in messages: enough
// to keep the workers busy while the caller stitches, small enough to bound
// in-flight memory.
const stageQueue = 256

type stageKind uint8

const (
	msgDelta stageKind = iota // one thread's stitched delta
	msgBlobs                  // broadcast to every worker
	msgSync                   // broadcast to every worker
)

// stageMsg is one message on a worker channel.
type stageMsg struct {
	kind   stageKind
	thread int
	items  []source.Item
	blobs  []*meta.CompiledMethod
	wg     *sync.WaitGroup // msgSync: Done once the receiver has drained
}

// segQueue is the FIFO of segment tasks the analyzer workers share: a
// job appears once per task, and each pop runs its next one.
type segQueue struct {
	mu   sync.Mutex
	jobs []*core.SegmentJob
	// ready holds a token while the queue may be non-empty; feeding is
	// closed once every worker's channel has closed, so no job can be
	// pushed any more.
	ready   chan struct{}
	feeding chan struct{}
	open    atomic.Int32 // workers whose channel is still open
}

func newSegQueue(workers int) *segQueue {
	q := &segQueue{ready: make(chan struct{}, 1), feeding: make(chan struct{})}
	q.open.Store(int32(workers))
	return q
}

// push appends a job and wakes a waiting worker.
func (q *segQueue) push(j *core.SegmentJob) {
	q.mu.Lock()
	q.jobs = append(q.jobs, j)
	q.mu.Unlock()
	q.signal()
}

func (q *segQueue) signal() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// pop takes the oldest job, or nil. When jobs remain it passes the wakeup
// on, so another idle worker takes the next one.
func (q *segQueue) pop() *core.SegmentJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) == 0 {
		return nil
	}
	j := q.jobs[0]
	q.jobs[0] = nil
	q.jobs = q.jobs[1:]
	if len(q.jobs) > 0 {
		q.signal()
	}
	return j
}

// closeFeed records that one worker's channel has closed.
func (q *segQueue) closeFeed() {
	if q.open.Add(-1) == 0 {
		close(q.feeding)
	}
}

// startStages launches the analyzer workers, each over its own replica of
// snap.
func (s *Session) startStages(snap *meta.Snapshot) {
	w := s.pipe.Cfg.WorkerCount()
	s.segs = newSegQueue(w)
	s.work = make([]chan stageMsg, w)
	s.wsnap = make([]*meta.Snapshot, w)
	s.byThread = make([][]*core.ThreadAnalyzer, w)
	s.stages.Add(w)
	for i := range s.work {
		s.work[i] = make(chan stageMsg, stageQueue)
		s.wsnap[i] = snap.Clone()
		go s.analyzeLoop(i)
	}
}

// broadcast sends m to every worker.
func (s *Session) broadcast(m stageMsg) {
	for _, w := range s.work {
		w <- m
	}
}

// route sends emitted thread deltas to their workers. Delta item slices are
// freshly built by the stitcher and never reused, so ownership transfers.
func (s *Session) route(deltas []trace.ThreadStream) {
	for _, d := range deltas {
		s.work[d.Thread%len(s.work)] <- stageMsg{kind: msgDelta, thread: d.Thread, items: d.Items}
	}
}

// analyzeLoop is analyzer worker w: it exports broadcast blobs into its
// snapshot replica and feeds deltas to the analyzers it owns until its
// channel closes, and runs queued segment tasks whenever no message is
// waiting, until every channel has closed and the queue is empty.
func (s *Session) analyzeLoop(w int) {
	defer s.stages.Done()
	in := s.work[w]
	var sc *core.MatchScratch // made by the first task this worker runs
	run := func(j *core.SegmentJob) {
		if sc == nil {
			sc = s.pipe.Matcher.NewScratch()
		}
		j.Run(s.ctx, sc)
	}
	for {
		// A waiting message comes first: deltas are what close segments.
		// (Receiving from a nil channel never proceeds.)
		select {
		case m, ok := <-in:
			in = s.handle(w, m, ok)
			continue
		default:
		}
		if j := s.segs.pop(); j != nil {
			run(j)
			continue
		}
		var done chan struct{}
		if in == nil {
			done = s.segs.feeding
		}
		select {
		case m, ok := <-in:
			in = s.handle(w, m, ok)
		case <-s.segs.ready:
		case <-done:
			// No job can be pushed any more: drain the queue and stop.
			j := s.segs.pop()
			if j == nil {
				return
			}
			run(j)
		}
	}
}

// handle applies one message of worker w's channel and returns the channel
// to keep receiving from: nil once it has closed.
func (s *Session) handle(w int, m stageMsg, ok bool) chan stageMsg {
	if !ok {
		s.segs.closeFeed()
		return nil
	}
	switch m.kind {
	case msgBlobs:
		// A blob already present, pointer-identical at its entry address,
		// is skipped: the clone may already hold it.
		snap := s.wsnap[w]
		for _, b := range m.blobs {
			if b != nil && snap.Compiled[b.EntryAddr()] != b {
				snap.Export(b)
			}
		}
	case msgDelta:
		s.analyzer(m.thread).Feed(s.ctx, m.items)
		s.hbEmitted.Add(1)
	case msgSync:
		m.wg.Done()
	}
	return s.work[w]
}

// analyzer returns thread's analyzer, creating it against its worker's
// snapshot replica on first use. Called by that worker, or by the caller's
// goroutine at quiescence.
func (s *Session) analyzer(thread int) *core.ThreadAnalyzer {
	w := thread % len(s.work)
	for thread >= len(s.byThread[w]) {
		s.byThread[w] = append(s.byThread[w], nil)
	}
	if a := s.byThread[w][thread]; a != nil {
		return a
	}
	a := s.pipe.NewThreadAnalyzer(thread, s.wsnap[w])
	a.SetLedger(s.ledger)
	a.SetSegmentQueue(s.segs.push)
	s.byThread[w][thread] = a
	return a
}

// quiesce blocks until every worker has processed every message sent to
// it so far.
func (s *Session) quiesce() {
	var wg sync.WaitGroup
	wg.Add(len(s.work))
	s.broadcast(stageMsg{kind: msgSync, wg: &wg})
	wg.Wait()
}

// merge rebuilds s.analyzers — one per thread, in thread order, at least n
// — from the workers' tables, creating empty analyzers for threads that
// have sideband but no trace. Safe only at quiescence or after stopStages.
func (s *Session) merge(n int) {
	n = max(n, s.st.NumThreads(), len(s.analyzers))
	as := make([]*core.ThreadAnalyzer, n)
	for t := range as {
		as[t] = s.analyzer(t)
	}
	s.analyzers = as
}

// stopStages runs the final carve, routes the last deltas, and closes and
// joins the workers.
func (s *Session) stopStages() {
	s.route(s.st.FinishWorkers(s.pipe.Cfg.Workers))
	for _, w := range s.work {
		close(w)
	}
	s.stages.Wait()
}
