package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jportal"
	"jportal/internal/core"
	"jportal/internal/ingest/client"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of a plain run (-trace 0), reported for every
// workload. "op" is the workload's timed operation: one archive replay for
// replay-*, one two-session push for ingest-h2.
var endToEnd = []metricDef{
	{"op_ms.p50", "ms", "lower"},
	{"op_ms.p75", "ms", "lower"},
	{"collect_ms.p50", "ms", "lower"},
	{"slowdown_x", "x", "lower"},
	{"accuracy_pct", "%", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of a traced run (-trace 1), reported for every
// workload: each traced run drives both the replay layers and the ingest
// layers over the workload's archive.
var perLayer = []metricDef{
	{"archive.read_ms", "ms", "lower"},
	{"archive.records", "count", "lower"},
	{"archive.mb", "MB", "lower"},
	{"trace.stitch_ms", "ms", "lower"},
	{"trace.items", "count", "lower"},
	{"core.icfg_ms", "ms", "lower"},
	{"source.decode_ms", "ms", "lower"},
	{"source.events", "count", "lower"},
	{"core.tokenize_ms", "ms", "lower"},
	{"core.tokens", "count", "lower"},
	{"core.segments", "count", "lower"},
	{"core.match_ms", "ms", "lower"},
	{"core.recover_ms", "ms", "lower"},
	{"core.holes", "count", "lower"},
	{"core.holes_filled", "count", "higher"},
	{"core.fill_ratio", "ratio", "higher"},
	{"core.recovered_steps", "count", "higher"},
	{"session.serial_ms", "ms", "lower"},
	{"session.speedup", "x", "higher"},
	{"session.trace_coverage", "ratio", "higher"},
	{"session.alloc_mb_per_op", "MB", "lower"},
	{"session.gc_per_op", "count", "lower"},
	{"session.mb_s", "MB/s", "higher"},
	{"vm.run_ms", "ms", "lower"},
	{"archive.write_ms", "ms", "lower"},
	{"collect.encode_ms", "ms", "lower"},
	{"collect.gen_kb", "KB", "lower"},
	{"collect.lost_pct", "%", "lower"},
	{"client.prescan_ms", "ms", "lower"},
	{"client.goroutines_leaked", "count", "lower"},
	{"ingest.hello_us", "us", "lower"},
	{"ingest.ack_us.p50", "us", "lower"},
	{"ingest.ack_us.p95", "us", "lower"},
	{"ingest.persist_us.p50", "us", "lower"},
	{"ingest.fin_us", "us", "lower"},
	{"ingest.frames", "count", "lower"},
	{"ingest.nacks", "count", "lower"},
	{"ingest.mb_s", "MB/s", "higher"},
}

// metricSet collects one run's metrics, checked against a definition list.
type metricSet struct {
	defs []metricDef
	m    map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, m: map[string]metricValue{}}
}

func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.name == name {
			s.m[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: undefined metric " + name)
}

// measure sets up one workload and runs its measured phase.
func measure(w workloadSpec, o options) (result, error) {
	dir, err := os.MkdirTemp(o.work, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	var t tally
	var host hostScale
	fx, setupS, err := setupRepeated(w, o, dir, &t, &host)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	var set *metricSet
	if o.trace {
		set, err = traceRun(fx, o, &t)
	} else {
		set, err = timedRun(fx, o, setupS, &host, &t)
	}
	if err != nil {
		return result{}, err
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: set.m}, nil
}

func (fx *fixture) op() (time.Duration, error) {
	if fx.w.ingest {
		return fx.ingestOnce()
	}
	return fx.replayOnce(core.DefaultPipelineConfig())
}

// timedRun is the plain measured phase: a closed loop of the workload's
// operation, one at a time, with a collect after every opsPerCollect
// operations, until o.seconds have passed and at least one collect ran.
// Each operation and collect starts from a collected heap and is scaled by
// the host kernels run right after it (the storage kernel too where the
// operation waits on fsync).
func timedRun(fx *fixture, o options, setupS float64, host *hostScale, t *tally) (*metricSet, error) {
	for i := 0; i < warmupOps; i++ {
		_, err := fx.op()
		t.record(err)
	}
	var opMs, collectMs, rawOpMs []float64
	calDir := filepath.Join(fx.work, "calibration")
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 1; n <= opsPerCollect || time.Now().Before(deadline); n++ {
		runtime.GC()
		d, err := fx.op()
		t.record(err)
		scale := host.cpu()
		if fx.w.ingest {
			var cerr error
			if scale, cerr = host.mixed(calDir); cerr != nil {
				return nil, cerr
			}
		}
		if err == nil {
			opMs = append(opMs, ms(d)*scale)
			rawOpMs = append(rawOpMs, ms(d))
		}
		if n%opsPerCollect == 0 {
			runtime.GC()
			d, err := fx.collectOnce()
			t.record(err)
			if scale := host.cpu(); err == nil {
				collectMs = append(collectMs, ms(d)*scale)
			}
		}
	}

	m := newMetricSet(endToEnd)
	m.set("op_ms.p50", median(opMs))
	m.set("op_ms.p75", percentile(opMs, 75))
	m.set("collect_ms.p50", median(collectMs))
	m.set("slowdown_x", fx.slowdown)
	m.set("accuracy_pct", fx.accuracy)
	m.set("setup_s", setupS)
	fmt.Printf("%-14s %d ops, %d collects, %d steps per replay, %.3f MB archive\n",
		fx.w.name, len(opMs), len(collectMs), fx.steps, float64(len(fx.stream))/(1<<20))
	kernels := fmt.Sprintf("cpu %.3f ms (reference %.1f)", median(host.cpuMs), cpuRefMs)
	if fx.w.ingest {
		kernels += fmt.Sprintf(", disk %.3f ms (reference %.1f)", median(host.diskMs), diskRefMs)
	}
	fmt.Printf("%-14s unscaled op_ms.p50 %.3f, op_ms.p75 %.3f; host kernels: %s\n",
		fx.w.name, median(rawOpMs), percentile(rawOpMs, 75), kernels)
	return m, nil
}

// traceRun is the traced measured phase. Each round makes one traced
// replay pass, one untraced serial and one untraced default replay, an
// untraced VM run, one traced collect, and one traced ingest round; rounds
// repeat until o.seconds have passed. Every metric is the median over
// rounds.
func traceRun(fx *fixture, o options, t *tally) (*metricSet, error) {
	tr := newTracer()
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	serialCfg := core.DefaultPipelineConfig()
	serialCfg.Workers = 1
	archiveMB := float64(len(fx.stream)) / (1 << 20)

	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		// Replay layers.
		runtime.GC()
		from := tr.startPass("replay")
		digest, c, err := tracedReplay(tr, fx.dir)
		tr.endPass()
		if err == nil && digest != fx.ref {
			err = fmt.Errorf("traced replay digest %#x differs from the reference analysis %#x", digest, fx.ref)
		}
		t.record(err)
		self := tr.selfMs(from)
		var layers float64
		for _, l := range replayLayers {
			add(l+"_ms", self[l])
			layers += self[l]
		}
		add("archive.records", float64(c.records))
		add("trace.items", float64(c.items))
		add("source.events", float64(c.events))
		add("core.tokens", float64(c.tokens))
		add("core.segments", float64(c.segments))
		add("core.holes", float64(c.holes))
		add("core.holes_filled", float64(c.filled))
		add("core.recovered_steps", float64(c.recoveredSteps))
		if c.holes > 0 {
			add("core.fill_ratio", float64(c.filled)/float64(c.holes))
		} else {
			add("core.fill_ratio", 0)
		}

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		serial, err := fx.replayOnce(serialCfg)
		runtime.ReadMemStats(&m1)
		t.record(err)
		parallel, perr := fx.replayOnce(core.DefaultPipelineConfig())
		t.record(perr)
		if err == nil && perr == nil {
			add("session.serial_ms", ms(serial))
			add("session.speedup", float64(serial)/float64(parallel))
			add("session.trace_coverage", layers/ms(serial))
			add("session.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			add("session.gc_per_op", float64(m1.NumGC-m0.NumGC))
			add("session.mb_s", archiveMB/parallel.Seconds())
		}

		// Collect layers.
		t.record(fx.traceCollect(tr, add))

		// Ingest layers.
		t.record(fx.traceIngest(tr, add))
	}

	m := newMetricSet(perLayer)
	for name, vs := range samples {
		m.set(name, median(vs))
	}
	m.set("archive.mb", archiveMB)
	m.set("collect.gen_kb", float64(fx.genBytes)/1024)
	m.set("collect.lost_pct", 100*float64(fx.lostBytes)/float64(fx.genBytes))
	if o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// traceCollect times the untraced VM run and one traced collect; the
// collector's own cost is what remains of the collect after both.
func (fx *fixture) traceCollect(tr *tracer, add func(string, float64)) error {
	plain := fx.collectCfg
	plain.DisableTracing = true
	runtime.GC()
	t0 := time.Now()
	if _, err := jportal.Run(fx.subj.Program, fx.subj.Threads, plain); err != nil {
		return err
	}
	vmMs := ms(time.Since(t0))

	dir := filepath.Join(fx.work, "collect")
	runtime.GC()
	from := tr.startPass("collect")
	_, err := collect(fx.subj, fx.collectCfg, dir, tr)
	tr.endPass()
	if err != nil {
		return err
	}
	if err := sameFile(filepath.Join(dir, jportal.StreamFileName), fx.stream); err != nil {
		return err
	}
	self := tr.selfMs(from)
	add("vm.run_ms", vmMs)
	add("archive.write_ms", self["archive.write"])
	add("collect.encode_ms", self["collect"]-vmMs)
	return nil
}

// traceIngest runs one ingest round on a fresh server: the client's
// pre-scan, a window-1 raw-protocol upload timing every frame, the state
// persist the server makes per frame, and two concurrent PushArchive
// uploads whose leftover goroutines are counted after shutdown.
func (fx *fixture) traceIngest(tr *tracer, add func(string, float64)) error {
	t0 := time.Now()
	if err := prescan(fx.dir); err != nil {
		return err
	}
	add("client.prescan_ms", ms(time.Since(t0)))

	persist, err := persistUs(filepath.Join(fx.work, "persist"), 32)
	if err != nil {
		return err
	}
	add("ingest.persist_us.p50", median(persist))

	data := filepath.Join(fx.work, "ingest")
	defer os.RemoveAll(data)
	before := settledGoroutines()
	srv, err := startServer(data)
	if err != nil {
		return err
	}
	tr.startPass("ingest")
	raw, rerr := rawPush(tr, srv.addr, "raw", fx.program, fx.stream)
	tr.endPass()
	var stats [pushSessions]client.PushStats
	perr := rerr
	if perr == nil {
		// A context that outlives the uploads, as the CLI's push has.
		_, stats, perr = fx.pushAll(context.Background(), srv.addr)
	}
	if err := srv.stop(); perr == nil {
		perr = err
	}
	if perr != nil {
		return perr
	}
	add("client.goroutines_leaked", float64(settledGoroutines()-before))
	if err := fx.checkIngested(data); err != nil {
		return err
	}
	if err := sameFile(filepath.Join(data, "raw", jportal.StreamFileName), fx.stream); err != nil {
		return err
	}

	nacks := raw.nacks
	for _, s := range stats {
		nacks += s.Nacks
	}
	add("ingest.hello_us", us(raw.hello))
	add("ingest.ack_us.p50", median(raw.acksUs))
	add("ingest.ack_us.p95", percentile(raw.acksUs, 95))
	add("ingest.fin_us", us(raw.fin))
	add("ingest.frames", float64(raw.frames))
	add("ingest.nacks", float64(nacks))
	add("ingest.mb_s", float64(raw.bytes)/(1<<20)/raw.total.Seconds())
	return nil
}
