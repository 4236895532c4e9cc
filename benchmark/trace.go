package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"jportal"
	"jportal/internal/core"
	"jportal/internal/meta"
	"jportal/internal/source"
	"jportal/internal/trace"
	"jportal/internal/vm"
)

// span is one timed call into a layer. Spans of one pass share Pass; every
// layer span's parent is its pass's root span.
type span struct {
	Pass   int    `json:"pass"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory. A nil *tracer records nothing, so
// traced and untraced callers share one code path.
type tracer struct {
	epoch time.Time
	pass  int
	root  int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), root: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// startPass opens a new pass and its root span, returning the index of the
// pass's first span.
func (t *tracer) startPass(name string) int {
	t.pass++
	t.root = -1
	t.root = t.begin(name)
	return t.root
}

// endPass closes the pass's root span.
func (t *tracer) endPass() {
	t.end(t.root)
	t.root = -1
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Pass: t.pass, ID: id, Parent: t.root, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
}

// selfMs returns, per span name, the summed self time in ms of the spans
// from index from on: a span's duration minus its children's.
func (t *tracer) selfMs(from int) map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans[from:] {
		d := float64(s.End-s.Start) / 1e6
		self[s.Name] += d
		if s.Parent >= from {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// The replay layers, in the order a pass reaches them. Their self times
// add up to the traced share of one serial replay.
var replayLayers = []string{
	"archive.read", "trace.stitch", "core.icfg", "source.decode",
	"core.tokenize", "core.match", "core.recover",
}

// replayCounts is the work one traced replay pass did, layer by layer.
type replayCounts struct {
	records, items, events, tokens, segments int
	holes, filled, recoveredSteps            int
}

// threadState is one thread's decode-side state in a traced pass.
type threadState struct {
	dec  source.Decoder
	tk   *core.StreamTokenizer
	pend []*core.Segment
}

// tracedReplay replays the archive at dir on one goroutine, calling each
// layer's public functions in the order the streaming Session does at
// Workers 1 and recording every call as a span. It returns the digest of
// the reconstructed steps, which must equal the reference analysis's.
func tracedReplay(tr *tracer, dir string) (uint64, replayCounts, error) {
	var c replayCounts
	pcfg := core.DefaultPipelineConfig()
	pcfg.Workers = 1

	id := tr.begin("archive.read")
	r, err := jportal.OpenStreamArchive(dir)
	tr.end(id)
	if err != nil {
		return 0, c, err
	}
	defer r.Close()

	var (
		snap    *meta.Snapshot
		pipe    *core.Pipeline
		st      *trace.StreamStitcher
		threads []*threadState
	)
	apply := func(deltas []trace.ThreadStream) {
		if len(deltas) == 0 {
			return
		}
		snap.Seal()
		for len(threads) < st.NumThreads() {
			threads = append(threads, &threadState{dec: pipe.Source().NewDecoder(snap), tk: core.NewStreamTokenizer(pipe.Prog)})
		}
		for _, d := range deltas {
			ts := threads[d.Thread]
			c.items += len(d.Items)
			id := tr.begin("source.decode")
			ev := ts.dec.DecodeChunk(d.Items)
			tr.end(id)
			c.events += len(ev)
			id = tr.begin("core.tokenize")
			ts.tk.Feed(ev)
			ts.pend = append(ts.pend, ts.tk.Take()...)
			tr.end(id)
		}
	}
	for {
		id := tr.begin("archive.read")
		ev, err := r.Next()
		tr.end(id)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, c, err
		}
		c.records++
		if ev.Kind != jportal.EvSnapshot && snap == nil {
			return 0, c, fmt.Errorf("%s: record kind %d before the snapshot", dir, ev.Kind)
		}
		switch ev.Kind {
		case jportal.EvSnapshot:
			snap = ev.Snapshot
			snap.Seal()
			id := tr.begin("core.icfg")
			pipe = core.NewPipeline(r.Program(), pcfg)
			tr.end(id)
			st = trace.NewStreamStitcher(r.NumCores(), pipe.Source().Traits())
		case jportal.EvBlob:
			if ev.Blob != nil {
				snap.Export(ev.Blob)
			}
		case jportal.EvSideband:
			id := tr.begin("trace.stitch")
			st.AddSideband([]vm.SwitchRecord{ev.Rec})
			tr.end(id)
		case jportal.EvWatermark:
			id := tr.begin("trace.stitch")
			st.Watermark(ev.Core, ev.Mark)
			tr.end(id)
		case jportal.EvChunk:
			id := tr.begin("trace.stitch")
			err := st.Feed(ev.Core, ev.Items)
			var deltas []trace.ThreadStream
			if err == nil {
				deltas = st.Drain()
			}
			tr.end(id)
			if err != nil {
				return 0, c, err
			}
			apply(deltas)
		}
	}
	if st == nil {
		return 0, c, fmt.Errorf("%s: no snapshot record", dir)
	}
	id = tr.begin("trace.stitch")
	deltas := st.Finish()
	tr.end(id)
	apply(deltas)
	for len(threads) < st.NumThreads() {
		threads = append(threads, &threadState{dec: pipe.Source().NewDecoder(snap), tk: core.NewStreamTokenizer(pipe.Prog)})
	}

	m := pipe.Matcher
	sc := m.NewScratch()
	steps := make([][]core.Step, len(threads))
	for ti, ts := range threads {
		id := tr.begin("source.decode")
		ev := ts.dec.Flush()
		tr.end(id)
		c.events += len(ev)
		id = tr.begin("core.tokenize")
		ts.tk.Feed(ev)
		ts.pend = append(ts.pend, ts.tk.Finish()...)
		tr.end(id)
		tst := ts.tk.Stats()
		c.tokens += tst.Tokens
		c.segments += tst.Segments

		id = tr.begin("core.match")
		flows := make([]*core.SegmentFlow, len(ts.pend))
		for i, seg := range ts.pend {
			flows[i] = m.ReconstructSegmentScratch(sc, seg)
		}
		tr.end(id)

		id = tr.begin("core.recover")
		rec := core.NewRecoverer(m, flows, pcfg.Recovery)
		fills := make([]core.Fill, len(flows))
		for i := 0; i < len(flows)-1; i++ {
			fills[i] = rec.RecoverHole(i)
		}
		tr.end(id)

		c.holes += max(len(flows)-1, 0)
		for i, f := range flows {
			steps[ti] = f.AppendSteps(steps[ti])
			if fills[i].Method != core.FillNone {
				c.filled++
				c.recoveredSteps += len(fills[i].Steps)
				steps[ti] = append(steps[ti], fills[i].Steps...)
			}
		}
	}
	digest, _ := digestSteps(steps)
	return digest, c, nil
}

// tracedSink wraps the archive writer during a traced collect, recording
// each call as an archive.write span.
type tracedSink struct {
	w  *jportal.StreamArchiveWriter
	tr *tracer
}

func (s *tracedSink) AddBlobs(blobs []*meta.CompiledMethod) error {
	id := s.tr.begin("archive.write")
	defer s.tr.end(id)
	return s.w.AddBlobs(blobs)
}

func (s *tracedSink) AddSideband(recs []vm.SwitchRecord) {
	id := s.tr.begin("archive.write")
	s.w.AddSideband(recs)
	s.tr.end(id)
}

func (s *tracedSink) Watermark(core int, mark uint64) {
	id := s.tr.begin("archive.write")
	s.w.Watermark(core, mark)
	s.tr.end(id)
}

func (s *tracedSink) Feed(core int, items []source.Item) error {
	id := s.tr.begin("archive.write")
	defer s.tr.end(id)
	return s.w.Feed(core, items)
}

func (s *tracedSink) Drain() error {
	id := s.tr.begin("archive.write")
	defer s.tr.end(id)
	return s.w.Drain()
}
