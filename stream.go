package jportal

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"jportal/internal/bytecode"
	"jportal/internal/conc"
	"jportal/internal/core"
	"jportal/internal/fault"
	"jportal/internal/meta"
	"jportal/internal/metrics"
	"jportal/internal/profile"
	"jportal/internal/source"
	"jportal/internal/trace"
	"jportal/internal/vm"
)

// Session is the incremental form of Analyze: trace chunks, sideband
// records and watermarks are fed as they become available, Drain advances
// the analysis over everything that is final under the current watermarks,
// and Close completes it. The resulting Analysis is byte-identical to the
// batch call for every chunking, watermark schedule and worker count —
// streaming changes when work happens, never what it computes.
//
// Feed, AddSideband, Watermark and Drain stitch on the caller's goroutine;
// the analysis runs on the Session's worker pool (pipeline_session.go),
// to which Drain only hands work, and Close joins it. Every Session owns
// goroutines until it is closed, so close abandoned sessions too. Calls
// must all come from one goroutine; DeltasApplied alone is safe to sample
// from others.
//
// The stitcher holds only windows that are not yet globally safe to emit
// (PeakBufferedItems reports the high water mark). Each thread's analyzer
// decodes and tokenizes its deltas as they arrive, and every segment its
// tokenizer closes is queued: whichever pool worker is free
// reconstructs it and prepares it for recovery while the stream is still
// being read. Close analyzes each thread's last segment, which closes only
// there, and runs §5 hole recovery: the recoverer matches holes against
// every segment of the thread, so recovering earlier would change fills.
//
// One context governs the whole session: the one passed to OpenSession.
// Once it is cancelled, deltas still to be analysed are quarantined under
// the deadline reason and Close returns a partial Analysis tagged
// TimedOut (DESIGN.md §11).
type Session struct {
	prog   *bytecode.Program
	pipe   *core.Pipeline
	st     *trace.StreamStitcher
	ncores int
	closed bool
	result *Analysis
	// ledger is the session's quarantine record (DESIGN.md §10): every
	// hardened stage reports what it excluded and why, and Close folds the
	// totals into the Analysis's DegradationReport.
	ledger *fault.Ledger
	// ctx is the session's context, derived from OpenSession's. Close
	// calls cancel to release it; abandon calls it first, so the remaining
	// work quarantines.
	ctx    context.Context
	cancel context.CancelFunc
	// hbEmitted is the watchdog heartbeat (DESIGN.md §11): thread deltas
	// applied so far. Atomic so a supervisor goroutine can sample it while
	// the workers update it.
	hbEmitted atomic.Uint64
	// peak is the high-water mark of the stitcher's BufferedItems.
	peak int

	// Stage machinery (pipeline_session.go): the worker pool, one strand
	// per thread in thread order, the snapshot clone every thread's
	// replica starts from, and the append-only log of blobs delivered
	// since.
	pool    *conc.Pool[*core.MatchScratch]
	threads []*sessionThread
	base    *meta.Snapshot
	blobs   []*meta.CompiledMethod
}

// OpenSession starts an incremental analysis over ncores per-core trace
// streams, decoding against snap. snap may still be growing — the online
// phase exports method metadata before the trace bytes that reference it —
// but the session decodes against a copy taken here, so metadata exported
// later must arrive through AddBlobs. ctx governs the
// whole session, Drain and Close included.
func OpenSession(ctx context.Context, prog *bytecode.Program, snap *meta.Snapshot, ncores int, cfg core.PipelineConfig) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, errors.New("jportal: session needs a metadata snapshot")
	}
	if ncores <= 0 {
		return nil, fmt.Errorf("jportal: session needs at least one core, got %d", ncores)
	}
	pipe := core.NewPipeline(prog, cfg)
	s := &Session{
		prog:   prog,
		pipe:   pipe,
		st:     trace.NewStreamStitcher(ncores, pipe.Source().Traits()),
		ncores: ncores,
		ledger: fault.NewLedger(metrics.Default),
		base:   snap.Clone(),
	}
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.st.SetLedger(s.ledger)
	w := cfg.WorkerCount()
	s.pool = conc.NewPool(w, stageQueue*w, pipe.Matcher.NewScratch)
	return s, nil
}

// Ledger exposes the session's quarantine ledger (read it after Close for
// a consistent view).
func (s *Session) Ledger() *fault.Ledger { return s.ledger }

// AddSideband delivers scheduler switch records in the order the VM
// recorded them. The stitcher keeps the records by value, so the caller
// may reuse its slice.
func (s *Session) AddSideband(recs []vm.SwitchRecord) {
	if !s.closed {
		s.st.AddSideband(recs)
	}
}

// Watermark declares that every switch record for core with TSC < w has
// been delivered (watermarks only move forward).
func (s *Session) Watermark(core int, w uint64) {
	if !s.closed {
		s.st.Watermark(core, w)
	}
}

// AddBlobs delivers compiled-method metadata (BlobSink). The blobs join
// the session's blob log, which every thread's snapshot replica catches
// up on before it decodes a delta routed later, so each thread sees a
// blob before any delta that references it (§3.2 dump-before-use). A
// blob a replica already holds is skipped, which makes the delivery
// idempotent when RunWithSink re-offers the export-log suffix.
func (s *Session) AddBlobs(blobs []*meta.CompiledMethod) error {
	if s.closed {
		return errors.New("jportal: AddBlobs on closed session")
	}
	s.blobs = append(s.blobs, blobs...)
	return nil
}

// Feed delivers one chunk of a core's exported trace, in export order. The
// stitcher appends the items to its own buffer, so the caller may reuse
// its buffer as soon as Feed returns (the archive reader does).
func (s *Session) Feed(core int, items []source.Item) error {
	if s.closed {
		return errors.New("jportal: Feed on closed session")
	}
	if err := s.st.Feed(core, items); err != nil {
		return fmt.Errorf("jportal: %w", err)
	}
	s.peak = max(s.peak, s.st.BufferedItems())
	return nil
}

// Drain advances the analysis over every scheduling window that is final
// under the current watermarks: it stitches out the finalized per-thread
// deltas and posts each to its thread's strand, whose task decodes and
// tokenizes it and queues each segment that closes for reconstruction
// (recovery waits for Close). Drain is asynchronous toward the workers
// only: it returns once the deltas are posted — blocking while
// stageQueue×WorkerCount() deltas wait — and Close (or a checkpoint)
// waits for the analysis. Deltas analysed after the session's context is
// cancelled are quarantined instead of decoded.
func (s *Session) Drain() error {
	if s.closed {
		return errors.New("jportal: Drain on closed session")
	}
	s.route(s.st.Drain())
	s.peak = max(s.peak, s.st.BufferedItems())
	return nil
}

// DeltasApplied returns the number of thread deltas pushed through the
// analyzers — a monotone watchdog heartbeat, safe to sample concurrently.
func (s *Session) DeltasApplied() uint64 { return s.hbEmitted.Load() }

// PeakBufferedItems returns the high-water mark over the session of the
// trace items buffered in the stitcher (fed but not yet emitted to an
// analyzer) — the streaming pipeline's peak in-flight trace memory.
func (s *Session) PeakBufferedItems() int { return s.peak }

// Close declares the input complete, runs the remaining decode,
// reconstruction and recovery, and returns the Analysis. Close is
// idempotent; after it, Feed and Drain fail. If the session's context is
// cancelled, the remaining reconstruction quarantines instead of computing
// and §5 recovery is skipped: Close returns promptly with a partial
// Analysis whose Report is tagged TimedOut — never a hang (DESIGN.md §11).
func (s *Session) Close() *Analysis {
	if s.closed {
		return s.result
	}
	s.closed = true
	// The stitcher's final per-core carve runs on the caller's own
	// fan-out, ahead of the segment tasks queued on the pool.
	s.route(s.st.FinishWorkers(s.pipe.Cfg.Workers))
	n := max(s.st.NumThreads(), len(s.threads))
	workers := s.pipe.Cfg.WorkerCount()
	threads := make([]*core.ThreadResult, n)
	covs := make([]*profile.Coverage, n)
	blobs := s.blobs
	for t := range n {
		th := s.thread(t)
		th.strand.Post(func(sc *core.MatchScratch) {
			threads[t] = s.analyzer(th, t, blobs).Finish(s.ctx, sc)
			// Each thread's coverage is folded over as many ranges as
			// there are workers per thread, so a lone thread still uses
			// every worker; the report only merges them.
			covs[t] = s.foldCoverage(sc, threads[t].Steps, max(workers/n, 1))
		})
	}
	s.pool.Close()
	s.cancel()
	s.result = &Analysis{Threads: threads, Pipeline: s.pipe}
	s.result.Report = s.degradationReport(covs)
	for _, th := range s.threads {
		if th.a.TimedOut() {
			s.result.Report.TimedOut = true
			break
		}
	}
	return s.result
}

// coverageSpan is the fewest steps foldCoverage gives one range, so a
// short thread folds in one: every range allocates, and is merged from,
// a coverage of the whole program.
const coverageSpan = 1 << 14

// foldCoverage folds the statement coverage of steps over up to parts
// ranges, one pool task and one coverage per range, while sc's worker
// waits, and merges them.
func (s *Session) foldCoverage(sc *core.MatchScratch, steps []core.Step, parts int) *profile.Coverage {
	per := max((len(steps)+parts-1)/parts, coverageSpan)
	covs := make([]*profile.Coverage, max((len(steps)+per-1)/per, 1))
	g := conc.NewGroup(s.pool)
	for k := range covs {
		g.Go(func(*core.MatchScratch) {
			covs[k] = profile.NewCoverage(s.prog)
			covs[k].Add(steps[k*per : min((k+1)*per, len(steps))])
		})
	}
	g.Wait(sc)
	for _, c := range covs[1:] {
		covs[0].Merge(c)
	}
	return covs[0]
}

// abandon releases an unfinished session's goroutines on an error path.
// Cancelling the session's context makes the remaining work quarantine
// instead of compute.
func (s *Session) abandon() {
	s.cancel()
	s.Close()
}

// degradationReport folds the ledger, the per-thread results and their
// per-thread coverage into the per-run robustness summary.
func (s *Session) degradationReport(covs []*profile.Coverage) *fault.DegradationReport {
	rep := &fault.DegradationReport{Quarantined: s.ledger.Counts()}
	rep.QuarantinedItems, rep.QuarantinedBytes = s.ledger.Totals()
	for _, t := range s.result.Threads {
		rep.DecodedSteps += t.DecodedSteps
		rep.RecoveredSteps += t.RecoveredSteps
		for i, f := range t.Flows {
			if f == nil {
				continue
			}
			if f.Quarantined {
				rep.SegmentsQuarantined++
			} else {
				rep.SegmentsDecoded++
			}
			if i < len(t.Fills) && i+1 < len(t.Flows) {
				if t.Fills[i].Method != core.FillNone {
					rep.HolesFilled++
				} else if t.Flows[i+1].Seg.GapBefore != nil {
					rep.HolesUnfilled++
				}
			}
		}
	}
	cov := profile.NewCoverage(s.prog)
	for _, c := range covs {
		cov.Merge(c)
	}
	rep.Coverage = cov.Ratio()
	return rep
}

// TraceSink consumes the online phase's outputs incrementally: RunWithSink
// delivers sideband, watermarks and trace chunks through it as the
// collector drains. *Session implements TraceSink (live analysis); so does
// *StreamArchiveWriter (chunked archival). A sink that wraps a *Session
// must also implement BlobSink and forward AddBlobs: the session decodes
// against snapshot copies taken at OpenSession, so metadata the VM
// exports later reaches them only through AddBlobs.
type TraceSink interface {
	AddSideband(recs []vm.SwitchRecord)
	Watermark(core int, w uint64)
	Feed(core int, items []source.Item) error
	Drain() error
}

// BlobSink is optionally implemented by sinks that need the metadata the
// VM exports during the run (the archive writer persists it; the live
// Session hands it to its threads' snapshot replicas): RunWithSink
// delivers each compiled method's blob before any trace chunk that can
// reference it, mirroring §3.2's dump-before-use ordering.
type BlobSink interface {
	AddBlobs(blobs []*meta.CompiledMethod) error
}

// RunWithSink is Run with streaming export: drained trace bytes leave the
// collector in chunks of cfg.SinkChunkItems through the sink instead of
// accumulating until the end. open is called once the VM exists — its
// snapshot is live and grows as methods are JITed — and must return the
// sink to use. The returned RunResult carries no Traces (they went through
// the sink); stats, sideband, snapshot and oracle are as in Run.
func RunWithSink(prog *bytecode.Program, threads []vm.ThreadSpec, cfg RunConfig,
	open func(prog *bytecode.Program, snap *meta.Snapshot, ncores int) (TraceSink, error)) (*RunResult, error) {

	if cfg.DisableTracing {
		return nil, errors.New("jportal: RunWithSink needs tracing enabled")
	}
	om, err := newOnlineMachine(prog, threads, cfg)
	if err != nil {
		return nil, err
	}
	m, col := om.m, om.col

	sink, err := open(prog, m.Snapshot, cfg.VM.Cores)
	if err != nil {
		return nil, err
	}
	blobSink, _ := sink.(BlobSink)

	// The collector invokes the sink synchronously on the VM goroutine, so
	// reading the machine's sideband and snapshot here is race-free.
	var sinkErr error
	sbSent, blobsSent := 0, 0
	deliver := func() {
		if blobSink != nil {
			if log := m.Snapshot.ExportedBlobs(); len(log) > blobsSent {
				if err := blobSink.AddBlobs(log[blobsSent:]); err != nil {
					sinkErr = err
					return
				}
				blobsSent = len(log)
			}
		}
		if sb := m.Sideband(); len(sb) > sbSent {
			sink.AddSideband(sb[sbSent:])
			sbSent = len(sb)
		}
		for c, w := range m.SidebandWatermarks() {
			sink.Watermark(c, w)
		}
	}
	col.SetSink(cfg.SinkChunkItems, func(c int, items []source.Item) {
		if sinkErr != nil {
			return
		}
		deliver()
		if err := sink.Feed(c, items); err != nil {
			sinkErr = err
			return
		}
		sinkErr = sink.Drain()
	})

	stats, err := m.Run(om.threads)
	if err != nil {
		return nil, err
	}
	col.Finish(m.FinalTSC()) // flushes the ring residue through the sink
	if sinkErr == nil {
		deliver() // trailing sideband/blobs after the last chunk
	}
	if sinkErr == nil {
		sinkErr = sink.Drain()
	}
	if sinkErr != nil {
		return nil, fmt.Errorf("jportal: trace sink: %w", sinkErr)
	}
	return om.result(stats), nil
}

// AnalyzeStreamed runs the online phase with a live analysis session as
// the sink: trace bytes are decoded, stitched and reconstructed as they
// drain, and whole per-core traces are never materialised. The returned
// Analysis equals Run + Analyze on the same program and configuration.
func AnalyzeStreamed(prog *bytecode.Program, threads []vm.ThreadSpec, rcfg RunConfig, pcfg core.PipelineConfig) (*RunResult, *Analysis, error) {
	if pcfg.Source == nil && rcfg.Source != "" {
		src, err := source.Lookup(rcfg.Source)
		if err != nil {
			return nil, nil, fmt.Errorf("jportal: %w", err)
		}
		pcfg.Source = src
	}
	var sess *Session
	run, err := RunWithSink(prog, threads, rcfg,
		func(p *bytecode.Program, snap *meta.Snapshot, ncores int) (TraceSink, error) {
			var err error
			sess, err = OpenSession(context.Background(), p, snap, ncores, pcfg)
			return sess, err
		})
	if err != nil {
		if sess != nil {
			sess.abandon()
		}
		return nil, nil, err
	}
	return run, sess.Close(), nil
}
