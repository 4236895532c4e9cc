package jportal

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/fault"
	"jportal/internal/iofault"
	"jportal/internal/meta"
	"jportal/internal/metrics"
	"jportal/internal/source"
	"jportal/internal/streamfmt"
	"jportal/internal/vm"
	"jportal/internal/watchdog"
)

// The run archive's record stream: everything the online phase produces
// goes into one append-only stream.jpt next to program.gob, in the order
// it was produced. That makes the archive tail-followable — an offline
// analyzer (jportal stream -follow) can decode it while the collecting
// process is still appending — and it preserves §3.2's dump-before-use
// discipline on disk: a blob record always precedes the first chunk whose
// trace bytes reference it.
//
// The record format lives in internal/streamfmt (it is shared with the
// networked ingest layer, which relays the same records over TCP). A
// reader that hits the end of the file before a complete record sees
// ErrStreamPending rather than a decode error: the writer only ever
// flushes whole records, so a short tail means "not written yet", never
// corruption. Actual corruption — flipped bytes, truncated payloads, a
// seal whose checksum does not cover what was read — surfaces as an error
// wrapping streamfmt.ErrCorrupt.

// ErrStreamPending is returned by StreamArchiveReader.Next when the archive
// ends mid-record or before a seal: the writer has not (yet) appended the
// next record. Followers wait and retry; one-shot readers treat it as a
// truncated archive.
var ErrStreamPending = errors.New("jportal: stream archive has no complete next record (still being written?)")

// StreamArchiveWriter appends a run's outputs to a chunked archive as they
// happen. Its embedded encoder is the TraceSink and BlobSink, so it plugs
// directly into RunWithSink; the writer adds the file the records go to.
// The encoder's first error sticks; Drain and Seal report it.
type StreamArchiveWriter struct {
	*streamfmt.Encoder
	f  iofault.File
	bw *bufio.Writer
}

// InitChunkedArchiveDir creates dir and writes the archive.meta header for
// a run collected by the named trace source ("" = the default, Intel PT),
// so readers decode the chunks with the right backend. The header write
// goes through fsys, so a fault injector covering the archive directory
// also covers its creation. It is the first step of CreateStreamArchive;
// the ingest server calls it to assemble the same archive from records
// relayed over the network.
func InitChunkedArchiveDir(dir, srcID string, fsys iofault.FS) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeArchiveMeta(fsys, dir, srcID)
}

// WriteArchiveProgram validates that programGob decodes to a well-formed
// program and writes it verbatim as dir's program.gob, through fsys. The
// ingest server uses it to persist the program bytes a client relayed,
// byte-identical to the client's local archive, on the same faultable path
// as the record stream: an injected ENOSPC here is shed and retried like
// any other storage fault.
func WriteArchiveProgram(dir string, programGob []byte, fsys iofault.FS) error {
	if _, err := decodeProgram(programGob); err != nil {
		return err
	}
	return writeFileFS(fsys, filepath.Join(dir, ProgramFileName), programGob)
}

// CreateStreamArchive creates dir as an Intel PT run archive: header,
// program, and a stream.jpt opened with the initial snapshot record (the
// template table and stubs exist before any thread runs; compiled methods
// arrive later as blob records).
func CreateStreamArchive(dir string, prog *bytecode.Program, snap *meta.Snapshot, ncores int) (*StreamArchiveWriter, error) {
	return createStreamArchive(dir, prog, snap, ncores, "")
}

// createStreamArchive is CreateStreamArchive for a run collected by the
// named trace source ("" = the default, Intel PT).
func createStreamArchive(dir string, prog *bytecode.Program, snap *meta.Snapshot, ncores int, srcID string) (*StreamArchiveWriter, error) {
	if ncores <= 0 {
		return nil, fmt.Errorf("jportal: stream archive needs at least one core, got %d", ncores)
	}
	if _, err := source.Lookup(srcID); err != nil {
		return nil, fmt.Errorf("jportal: %w", err)
	}
	programGob, err := EncodeProgram(prog)
	if err != nil {
		return nil, err
	}
	if err := InitChunkedArchiveDir(dir, srcID, iofault.OS); err != nil {
		return nil, err
	}
	if err := writeFileFS(iofault.OS, filepath.Join(dir, ProgramFileName), programGob); err != nil {
		return nil, err
	}
	f, err := iofault.OS.OpenFile(filepath.Join(dir, StreamFileName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &StreamArchiveWriter{f: f, bw: bufio.NewWriter(f)}
	w.Encoder, err = streamfmt.NewEncoder(w.bw, ncores)
	if err == nil {
		err = w.Snapshot(snap)
	}
	if err == nil {
		err = w.Drain()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Drain flushes to disk (TraceSink): after it returns, a follower reads
// every record appended so far.
func (w *StreamArchiveWriter) Drain() error {
	if err := w.Err(); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Seal appends the seal record — carrying the CRC-32 of the whole stream —
// flushes, and closes the file. The archive is complete: readers reach the
// seal (and verify the checksum) instead of ErrStreamPending, and LoadRun
// accepts the directory.
func (w *StreamArchiveWriter) Seal() error {
	err := w.Encoder.Seal()
	if err == nil {
		err = w.bw.Flush()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CollectArchive runs prog under cfg straight into a sealed archive at dir,
// as jportal collect does: every drained trace chunk is appended to the
// archive as it leaves the collector. The returned RunResult carries no
// Traces (they went to disk).
func CollectArchive(dir string, prog *bytecode.Program, threads []vm.ThreadSpec, cfg RunConfig) (*RunResult, error) {
	var w *StreamArchiveWriter
	run, err := RunWithSink(prog, threads, cfg,
		func(p *bytecode.Program, snap *meta.Snapshot, ncores int) (TraceSink, error) {
			var err error
			w, err = createStreamArchive(dir, p, snap, ncores, cfg.Source)
			return w, err
		})
	if err != nil {
		return nil, err
	}
	return run, w.Seal()
}

// Stream event kinds, in record-tag order.
const (
	EvSnapshot  = streamfmt.KindSnapshot
	EvBlob      = streamfmt.KindBlob
	EvSideband  = streamfmt.KindSideband
	EvChunk     = streamfmt.KindChunk
	EvWatermark = streamfmt.KindWatermark
	EvSeal      = streamfmt.KindSeal
)

// StreamEvent is one decoded record of a chunked archive.
type StreamEvent = streamfmt.Record

// StreamArchiveReader reads a chunked archive record by record, including
// one that is still being written: Next returns ErrStreamPending at an
// incomplete tail (retry after the writer appends more) and io.EOF once the
// seal record has been consumed. The seal's checksum is verified against
// every byte read; a mismatch is reported as corruption, so a damaged or
// silently truncated archive cannot pass for a complete one.
type StreamArchiveReader struct {
	f      *os.File
	prog   *bytecode.Program
	ncores int
	buf    []byte           // read-ahead not yet consumed
	off    int64            // file offset of the first byte past buf
	cur    streamfmt.Cursor // seal check over the records consumed so far
	// src is the trace source the archive header names; its traits
	// validate every decoded item.
	src source.Source
	// items is the chunk-record decode buffer, reused across Next calls:
	// a chunk event's Items alias it and are valid until the next Next.
	items []source.Item
}

// OpenStreamArchive opens the run archive in dir and reads the fixed
// header. The initial snapshot record arrives as the first Next event.
func OpenStreamArchive(dir string) (*StreamArchiveReader, error) {
	srcID, err := ArchiveSourceID(dir)
	if err != nil {
		return nil, err
	}
	src, err := source.Lookup(srcID)
	if err != nil {
		return nil, fmt.Errorf("jportal: %s: %w", dir, err)
	}
	programGob, err := os.ReadFile(filepath.Join(dir, ProgramFileName))
	if err != nil {
		return nil, err
	}
	prog, err := decodeProgram(programGob)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, StreamFileName))
	if err != nil {
		return nil, err
	}
	r := &StreamArchiveReader{f: f, src: src}
	if err := r.fill(streamfmt.HeaderLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("jportal: %s: truncated stream header", dir)
	}
	r.ncores, err = streamfmt.ParseHeader(r.buf)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("jportal: %s: %w", dir, err)
	}
	r.consume(streamfmt.HeaderLen)
	r.cur = streamfmt.NewCursor(r.ncores)
	r.prog = prog
	return r, nil
}

// Program returns the archived program.
func (r *StreamArchiveReader) Program() *bytecode.Program { return r.prog }

// NumCores returns the stream's core count.
func (r *StreamArchiveReader) NumCores() int { return r.ncores }

// Source returns the trace source the archive was collected with.
func (r *StreamArchiveReader) Source() source.Source { return r.src }

// Close closes the underlying file.
func (r *StreamArchiveReader) Close() error { return r.f.Close() }

// fill grows the read-ahead to at least n bytes. ErrStreamPending means the
// file currently ends before byte n; nothing is consumed, so the caller can
// retry after the writer appends.
func (r *StreamArchiveReader) fill(n int) error {
	for len(r.buf) < n {
		// Read straight into the read-ahead's spare capacity: the buffer
		// is reused across records, so a steady replay allocates nothing.
		want := max(4096, n-len(r.buf))
		r.buf = slices.Grow(r.buf, want)
		m, err := r.f.ReadAt(r.buf[len(r.buf):len(r.buf)+want], r.off)
		r.buf = r.buf[:len(r.buf)+m]
		r.off += int64(m)
		if err == io.EOF {
			if len(r.buf) < n {
				return ErrStreamPending
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// consume drops n bytes from the front of the read-ahead.
func (r *StreamArchiveReader) consume(n int) {
	r.buf = r.buf[:copy(r.buf, r.buf[n:])]
}

// Next decodes the next record. It returns ErrStreamPending at an
// incomplete (unsealed) tail, io.EOF after the seal, and an error wrapping
// streamfmt.ErrCorrupt for damaged streams — including a seal whose CRC
// does not match the bytes read before it. A chunk event's Items slice is
// only valid until the following Next call (the decode buffer is reused);
// consumers that keep items copy them, as Session.Feed's stitcher does.
func (r *StreamArchiveReader) Next() (*StreamEvent, error) {
	if r.cur.Sealed {
		return nil, io.EOF
	}
	// Step a copy, committed only once the record decodes: a failed Next
	// leaves the reader where it was.
	cur := r.cur
	var n int
	for {
		var err error
		n, err = cur.Step(r.buf)
		if err == nil {
			break
		}
		if !errors.Is(err, streamfmt.ErrShort) {
			return nil, fmt.Errorf("jportal: stream archive: %w", err)
		}
		// Incomplete: the record needs at least one more byte than we have.
		if ferr := r.fill(len(r.buf) + 1); ferr != nil {
			return nil, ferr
		}
	}
	ev, _, err := streamfmt.DecodeInto(r.buf[:n], r.items, r.src.Traits())
	if err != nil {
		return nil, fmt.Errorf("jportal: stream archive: %w", err)
	}
	if ev.Kind == EvChunk {
		r.items = ev.Items
	}
	r.cur = cur
	r.consume(n)
	return &ev, nil
}

// AnalyzeStreamArchive replays an archive through a streaming Session.
// With follow true it tails an archive still being written, sleeping poll
// between attempts until the seal arrives; otherwise an unsealed archive
// is an error. The result is byte-identical to batch Analyze over the same
// run.
func AnalyzeStreamArchive(dir string, cfg core.PipelineConfig, follow bool, poll time.Duration) (*bytecode.Program, *Analysis, error) {
	return AnalyzeStreamArchiveOpts(context.Background(), dir, cfg, StreamOptions{Follow: follow, Poll: poll})
}

// DefaultCheckpointEvery is how many chunk records pass between checkpoint
// writes when checkpointing is enabled without an explicit interval.
const DefaultCheckpointEvery = 64

// StreamOptions configures the resumable archive replay (DESIGN.md §11).
// The zero value reproduces the plain one-shot replay.
type StreamOptions struct {
	// Follow tails an archive still being written, sleeping Poll between
	// attempts until the seal arrives.
	Follow bool
	// Poll is the follow-mode retry interval (0 = 50ms).
	Poll time.Duration
	// CheckpointPath, when non-empty, enables crash-safe checkpointing:
	// session.ckpt is written there (atomically, CRC-sealed) at chunk
	// intervals, and deleted once the analysis completes.
	CheckpointPath string
	// CheckpointEvery is the chunk-record interval between checkpoint
	// writes (0 = DefaultCheckpointEvery).
	CheckpointEvery int
	// Resume restores from CheckpointPath before replaying, if a valid
	// checkpoint exists. A missing or corrupt/unreadable checkpoint falls
	// back to a full replay (the corrupt case is logged via Logf) — resume
	// never produces different output than an uninterrupted run, only less
	// recomputation.
	Resume bool
	// StallAfter, when positive, runs a watchdog supervisor over the
	// replay's progress heartbeats (records consumed, deltas applied): a
	// stall longer than this is reported to the session ledger under the
	// stall reason and counted on the "watchdog_stalls" metric.
	StallAfter time.Duration
	// Logf receives resume, checkpoint and watchdog notices (nil = silent).
	Logf func(format string, args ...any)

	// stopAfterRecords is a test hook: abandon the replay (no Close, no
	// checkpoint deletion — as if the process died) after consuming this
	// many records. 0 = disabled.
	stopAfterRecords int
}

// errReplayAbandoned is the sentinel stopAfterRecords exits with.
var errReplayAbandoned = errors.New("jportal: replay abandoned by test hook")

func (o *StreamOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// AnalyzeStreamArchiveOpts replays an archive through a streaming Session
// with the full resilience option set: follow mode, cancellation with
// partial results, crash-safe checkpointing, resume, and watchdog
// supervision. Output is byte-identical to the plain replay (and to batch
// Analyze) for every option combination — checkpointing and resume change
// when work happens, never what it computes. ctx stops the reading only:
// when it is cancelled, the session — which runs under
// context.WithoutCancel(ctx) — is closed over everything consumed so far,
// and that complete partial Analysis is returned alongside ctx's error.
// The caller can flush partial output (jportal stream -follow does, on
// SIGINT) while still seeing that the tail was never reached.
func AnalyzeStreamArchiveOpts(ctx context.Context, dir string, cfg core.PipelineConfig, opts StreamOptions) (*bytecode.Program, *Analysis, error) {
	r, err := OpenStreamArchive(dir)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	if cfg.Source == nil {
		// Decode with the backend the archive was collected with.
		cfg.Source = r.Source()
	}
	if opts.Poll <= 0 {
		opts.Poll = 50 * time.Millisecond
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}

	// Resume: load the checkpoint up front so the replay loop knows which
	// prefix to skip. Missing file = fresh run; damaged file = fresh run
	// (the checkpoint is an optimisation, never a correctness dependency).
	var resume *SessionCheckpoint
	if opts.Resume && opts.CheckpointPath != "" {
		switch ck, err := ReadSessionCheckpoint(opts.CheckpointPath); {
		case err == nil:
			resume = ck
			opts.logf("resuming from checkpoint at record %d", ck.Records)
		case os.IsNotExist(err):
			// No checkpoint: a fresh run, or one that completed and cleaned up.
		default:
			opts.logf("checkpoint unusable, replaying from the start: %v", err)
		}
	}

	var sess *Session
	records := 0 // archive records fully applied
	chunks := 0  // chunk records among them (checkpoint cadence)
	// Error paths below return without closing the session; it owns
	// goroutines, so release them instead of leaking them.
	defer func() {
		if sess != nil {
			sess.abandon()
		}
	}()

	// Watchdog: sample the replay's heartbeats and report stalls. busy
	// distinguishes "working on a record" from "waiting for the writer" —
	// an idle follower is not a stall. The supervisor goroutine reaches the
	// session only through sessPtr (published once, atomically); the
	// heartbeats themselves are atomics by construction.
	var busy atomic.Bool
	var recordsHB atomic.Uint64
	var sessPtr atomic.Pointer[Session]
	if opts.StallAfter > 0 {
		dog := watchdog.New(opts.StallAfter/4, opts.StallAfter)
		dog.Register(watchdog.Probe{
			Name: "stream_replay",
			Progress: func() uint64 {
				n := recordsHB.Load()
				if s := sessPtr.Load(); s != nil {
					n += s.DeltasApplied()
				}
				return n
			},
			Active: busy.Load,
			OnStall: func(name string, progress uint64, stuck time.Duration) {
				metrics.Default.Add(metrics.CounterWatchdogStalls, 1)
				opts.logf("watchdog: %s stalled for %s at progress %d", name, stuck, progress)
				if s := sessPtr.Load(); s != nil {
					s.Ledger().Add(fault.Entry{
						Reason: fault.ReasonStall, Thread: -1, Core: -1,
						Detail: fmt.Sprintf("%s stalled for %s", name, stuck),
					})
				}
			},
		})
		dog.Start()
		defer dog.Stop()
	}

	checkpoint := func() {
		if opts.CheckpointPath == "" || sess == nil {
			return
		}
		ck, err := sess.ExportCheckpoint(records)
		if err == nil {
			err = WriteSessionCheckpoint(opts.CheckpointPath, ck)
		}
		if err != nil {
			// A failed checkpoint degrades resumability, not the analysis.
			opts.logf("checkpoint at record %d failed: %v", records, err)
			return
		}
		metrics.Default.Add(metrics.CounterCheckpointsWritten, 1)
	}

	partial := func(cause error) (*bytecode.Program, *Analysis, error) {
		if sess == nil {
			return nil, nil, cause
		}
		an, cerr := sess.Close()
		if cerr != nil {
			return nil, nil, errors.Join(cause, cerr)
		}
		return r.Program(), an, cause
	}
	// apply applies one record to the session and, at its checkpoint
	// cadence, checkpoints it.
	apply := func(ev *StreamEvent) error {
		if ev.Kind != EvSnapshot && sess == nil {
			return fmt.Errorf("jportal: %s: %s record before snapshot", dir, ev.Kind)
		}
		// replayed marks records inside the resumed prefix: their analysis
		// effects live in the checkpoint, so only the deterministic
		// snapshot/blob replay (which rebuilds the metadata the checkpoint
		// references) is applied.
		replayed := resume != nil && records < resume.Records
		switch ev.Kind {
		case EvSnapshot:
			if sess != nil {
				return fmt.Errorf("jportal: %s: duplicate snapshot record", dir)
			}
			s, err := OpenSession(context.WithoutCancel(ctx), r.Program(), ev.Snapshot, r.NumCores(), cfg)
			if err != nil {
				return err
			}
			sess = s
			sessPtr.Store(sess)
		case EvBlob:
			if err := sess.AddBlobs([]*meta.CompiledMethod{ev.Blob}); err != nil {
				return err
			}
		case EvSideband:
			if !replayed {
				sess.AddSideband([]vm.SwitchRecord{ev.Rec})
			}
		case EvWatermark:
			if !replayed {
				sess.Watermark(ev.Core, ev.Mark)
			}
		case EvChunk:
			if !replayed {
				if err := sess.Feed(ev.Core, ev.Items); err != nil {
					return err
				}
				if err := sess.Drain(); err != nil {
					return err
				}
				chunks++
			}
		case EvSeal:
			// loop exits via io.EOF on the next Next
		}
		records++
		recordsHB.Add(1)
		if resume != nil && records == resume.Records {
			// The prefix is replayed: the snapshot's export log now matches
			// the checkpointing run's, so the saved state can reattach.
			if err := sess.RestoreCheckpoint(resume); err != nil {
				return fmt.Errorf("jportal: resume at record %d: %w", records, err)
			}
			resume = nil
		} else if resume == nil && ev.Kind == EvChunk && !replayed && chunks%opts.CheckpointEvery == 0 {
			checkpoint()
		}
		return nil
	}
	for {
		if opts.stopAfterRecords > 0 && records >= opts.stopAfterRecords {
			return nil, nil, errReplayAbandoned
		}
		ev, err := r.Next()
		if err == ErrStreamPending {
			if !opts.Follow {
				return nil, nil, fmt.Errorf("jportal: %s is unsealed (writer still running? use follow mode)", dir)
			}
			select {
			case <-ctx.Done():
				return partial(ctx.Err())
			case <-time.After(opts.Poll):
			}
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		busy.Store(true)
		err = apply(ev)
		busy.Store(false)
		if err != nil {
			return nil, nil, err
		}
		if err := ctx.Err(); err != nil {
			return partial(err)
		}
	}
	if sess == nil {
		return nil, nil, fmt.Errorf("jportal: %s: stream has no snapshot record", dir)
	}
	if resume != nil {
		return nil, nil, fmt.Errorf("jportal: checkpoint covers %d records but the archive has only %d", resume.Records, records)
	}
	an, err := sess.Close()
	if err != nil {
		return nil, nil, err
	}
	if opts.CheckpointPath != "" {
		// The run is complete: a later -resume must start fresh, not replay
		// a stale mid-run state over a finished analysis.
		os.Remove(opts.CheckpointPath)
	}
	return r.Program(), an, nil
}
