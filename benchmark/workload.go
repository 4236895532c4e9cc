package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"jportal"
	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/experiments"
	"jportal/internal/ingest/client"
	"jportal/internal/meta"
	"jportal/internal/workload"
)

// workloadSpec is one set of inputs. Every workload collects its subject
// into a sealed chunked archive at set-up; the timed operation then either
// replays that archive through the offline pipeline or pushes it through
// the ingest server.
type workloadSpec struct {
	name    string
	subject string
	scale   float64
	// bufMB is the paper-label per-core trace buffer size, mapped to
	// simulation bytes as the experiments do; smaller buffers lose more
	// trace and leave more holes for recovery.
	bufMB int
	// ingest selects the push operation instead of the replay.
	ingest bool
}

// The workloads, and why each one is here, are described in README.md.
var workloads = []workloadSpec{
	// Mixed load, multi-threaded: per-thread fan-out has work to split.
	{name: "replay-h2", subject: "h2", scale: 2, bufMB: 128},
	// Lossless, most archive bytes per reconstructed step: archive read and
	// stitch carry the most weight, recovery fills nothing.
	{name: "replay-pmd", subject: "pmd", scale: 1, bufMB: 256},
	// Single thread, heavy loss: recovery dominates.
	{name: "replay-batik", subject: "batik", scale: 2, bufMB: 64},
	// The write path over replay-h2's archive: no offline-pipeline code
	// runs in the timed operation.
	{name: "ingest-h2", subject: "h2", scale: 2, bufMB: 128, ingest: true},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

const (
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps = 5
	// warmupOps untimed operations run before the measured phase.
	warmupOps = 3
	// opsPerCollect timed operations run between two timed collects, so
	// both sample sets span the whole measured phase.
	opsPerCollect = 5
	// pushSessions is the number of concurrent client connections of one
	// ingest operation: one per CPU of the reference 2-CPU machine.
	pushSessions = 2
)

// fixture is everything set-up produces for one workload.
type fixture struct {
	w    workloadSpec
	subj *workload.Subject
	// collectCfg is the timed collect's configuration (oracle off).
	collectCfg jportal.RunConfig
	// dir is the sealed archive; stream and program are its two files.
	dir     string
	stream  []byte
	program []byte
	// work is scratch space for timed collects and ingest data.
	work string
	// ref and steps describe the reference batch Analyze over LoadRun of
	// the archive: every replay must reproduce this digest.
	ref   uint64
	steps int
	// oracle and an are the collect's oracle and the reference analysis,
	// kept only until they are scored.
	oracle *jportal.Oracle
	an     *jportal.Analysis
	// accuracy is Figure 7's overall accuracy (percent) of the reference
	// analysis against the oracle.
	accuracy float64
	// slowdown is Table 2's JPortal column: simulated active cycles with
	// tracing over cycles without.
	slowdown  float64
	genBytes  uint64
	lostBytes uint64
}

// setup generates the subject, collects it into a sealed archive with the
// oracle attached, runs the untraced baseline and the reference batch
// analysis.
func setup(w workloadSpec, o options, dir string) (*fixture, error) {
	subj, err := workload.Load(w.subject, workload.Scale(w.scale*o.scale))
	if err != nil {
		return nil, err
	}
	rcfg := jportal.DefaultRunConfig()
	rcfg.VM.JITSalt = o.seed
	rcfg.PT.BufBytes = uint64(w.bufMB) << (20 - experiments.BufScaleShift)
	fx := &fixture{
		w:    w,
		subj: subj,
		dir:  filepath.Join(dir, "archive"),
		work: dir,
	}
	fx.collectCfg = rcfg
	fx.collectCfg.CollectOracle = false

	run, err := collect(subj, rcfg, fx.dir, nil)
	if err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	base := rcfg
	base.DisableTracing = true
	base.CollectOracle = false
	plain, err := jportal.Run(subj.Program, subj.Threads, base)
	if err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	fx.slowdown = float64(run.Stats.ActiveCycles) / float64(plain.Stats.ActiveCycles)
	fx.genBytes = run.GenBytes

	prog, loaded, err := jportal.LoadRun(fx.dir)
	if err != nil {
		return nil, err
	}
	for i := range loaded.Traces {
		fx.lostBytes += loaded.Traces[i].LostBytes()
	}
	an, err := jportal.Analyze(prog, loaded, core.DefaultPipelineConfig())
	if err != nil {
		return nil, fmt.Errorf("reference analysis: %w", err)
	}
	fx.ref, fx.steps = digestAnalysis(an)
	fx.oracle, fx.an = run.Oracle, an

	if fx.stream, err = os.ReadFile(filepath.Join(fx.dir, jportal.StreamFileName)); err != nil {
		return nil, err
	}
	if fx.program, err = os.ReadFile(filepath.Join(fx.dir, "program.gob")); err != nil {
		return nil, err
	}
	return fx, nil
}

// setupRepeated runs set-up setupReps times in fresh directories under
// dir, each timing scaled by the CPU kernel run right after it, and checks
// that every repetition reproduced the first one's archive and reference
// analysis. It returns the first fixture and the median scaled set-up time
// in seconds. A traced run, which reports no set-up time, sets up once.
// Scoring the accuracy costs seconds of LCS alignment per million steps,
// so it runs once, after the set-ups, and only for a plain run: no
// per-layer metric needs it.
func setupRepeated(w workloadSpec, o options, dir string, t *tally, host *hostScale) (*fixture, float64, error) {
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var first *fixture
	var secs []float64
	for i := 0; i < reps; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		runtime.GC()
		t0 := time.Now()
		fx, err := setup(w, o, sub)
		d := time.Since(t0).Seconds()
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, d*host.cpu())
		if first == nil {
			first = fx
			continue
		}
		var cerr error
		if !bytes.Equal(fx.stream, first.stream) || !bytes.Equal(fx.program, first.program) || fx.ref != first.ref {
			cerr = fmt.Errorf("set-up %d did not reproduce set-up 0's archive and analysis", i)
		}
		t.record(cerr)
		if err := os.RemoveAll(sub); err != nil {
			return nil, 0, err
		}
	}
	if !o.trace {
		first.accuracy = overallAccuracy(first.oracle, first.an) * 100
	}
	first.oracle, first.an = nil, nil
	return first, median(secs), nil
}

// collect runs the subject with streaming export into a chunked archive at
// dir and seals it. A non-nil tracer records the archive writer's calls as
// spans.
func collect(subj *workload.Subject, cfg jportal.RunConfig, dir string, tr *tracer) (*jportal.RunResult, error) {
	var w *jportal.StreamArchiveWriter
	run, err := jportal.RunWithSink(subj.Program, subj.Threads, cfg,
		func(p *bytecode.Program, snap *meta.Snapshot, ncores int) (jportal.TraceSink, error) {
			id := tr.begin("archive.write")
			var err error
			w, err = jportal.CreateStreamArchive(dir, p, snap, ncores)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			if tr != nil {
				return &tracedSink{w: w, tr: tr}, nil
			}
			return w, nil
		})
	if w != nil {
		id := tr.begin("archive.write")
		serr := w.Seal()
		tr.end(id)
		if err == nil {
			err = serr
		}
	}
	if err != nil {
		return nil, err
	}
	return run, nil
}

// replayOnce is the replay workloads' timed operation: one streaming
// replay of the sealed archive with the default pipeline configuration.
// The step digest is checked outside the timed span.
func (fx *fixture) replayOnce(cfg core.PipelineConfig) (time.Duration, error) {
	t0 := time.Now()
	_, an, err := jportal.AnalyzeStreamArchive(fx.dir, cfg, false, 0)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if got, _ := digestAnalysis(an); got != fx.ref {
		return 0, fmt.Errorf("replay digest %#x differs from the reference analysis %#x", got, fx.ref)
	}
	return d, nil
}

// collectOnce is the timed online phase: the subject run with the trace
// streamed into a fresh chunked archive, then sealed. The archive must be
// byte-identical to set-up's.
func (fx *fixture) collectOnce() (time.Duration, error) {
	dir := filepath.Join(fx.work, "collect")
	t0 := time.Now()
	_, err := collect(fx.subj, fx.collectCfg, dir, nil)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if err := sameFile(filepath.Join(dir, jportal.StreamFileName), fx.stream); err != nil {
		return 0, err
	}
	return d, nil
}

// ingestOnce is the ingest workload's timed operation: pushSessions
// concurrent PushArchive uploads of the sealed archive into a fresh
// in-process server, timed from the first dial to the last FIN_ACK. Every
// session's server-side archive must be byte-identical to the source.
func (fx *fixture) ingestOnce() (time.Duration, error) {
	data := filepath.Join(fx.work, "ingest")
	srv, err := startServer(data)
	if err != nil {
		return 0, err
	}
	// Cancelled once the pushes are done, which also ends each pusher's
	// context watcher.
	ctx, cancel := context.WithCancel(context.Background())
	d, _, perr := fx.pushAll(ctx, srv.addr)
	cancel()
	if err := srv.stop(); perr == nil {
		perr = err
	}
	if perr == nil {
		perr = fx.checkIngested(data)
	}
	if err := os.RemoveAll(data); perr == nil {
		perr = err
	}
	return d, perr
}

// pushAll uploads the archive over pushSessions concurrent sessions.
func (fx *fixture) pushAll(ctx context.Context, addr string) (time.Duration, [pushSessions]client.PushStats, error) {
	var stats [pushSessions]client.PushStats
	var errs [pushSessions]error
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = client.PushArchive(ctx, client.Options{Addr: addr, SessionID: sessionID(i)}, fx.dir)
		}(i)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, stats, fmt.Errorf("push: %w", err)
		}
	}
	return d, stats, nil
}

func sessionID(i int) string { return fmt.Sprintf("session-%d", i) }

// checkIngested compares every pushed session's archive with the source.
func (fx *fixture) checkIngested(data string) error {
	for i := 0; i < pushSessions; i++ {
		dir := filepath.Join(data, sessionID(i))
		if err := sameFile(filepath.Join(dir, jportal.StreamFileName), fx.stream); err != nil {
			return err
		}
		if err := sameFile(filepath.Join(dir, "program.gob"), fx.program); err != nil {
			return err
		}
	}
	return nil
}

func sameFile(path string, want []byte) error {
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d bytes differ from the %d-byte reference", path, len(got), len(want))
	}
	return nil
}
