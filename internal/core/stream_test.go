package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/fault"
	"jportal/internal/meta"
	"jportal/internal/source"
)

// TestTokenizerChunkInvariant feeds the mixed event fixture (templates,
// TNT pairing, a gap, a JIT range, a desync) through the streaming
// tokenizer at every possible split point, and one event at a time: the
// segments and stats must match the batch call exactly. The interesting
// cuts are the ones that separate a conditional dispatch from its TNT and
// a gap from the segment it opens.
func TestTokenizerChunkInvariant(t *testing.T) {
	events, prog, _ := mkEvents()
	wantSegs, wantSt := TokenizeEvents(prog, events)

	check := func(name string, feed func(tk *tokenizer) []*Segment) {
		tk := newTokenizer(prog)
		var segs []*Segment
		segs = append(segs, feed(tk)...)
		segs = append(segs, tk.finish()...)
		if !reflect.DeepEqual(segs, wantSegs) {
			t.Errorf("%s: segments diverge from batch", name)
		}
		if tk.st != *wantSt {
			t.Errorf("%s: stats = %+v, want %+v", name, tk.st, *wantSt)
		}
	}

	for cut := 0; cut <= len(events); cut++ {
		check("cut", func(tk *tokenizer) []*Segment {
			tk.feed(events[:cut])
			// take's harvest buffer is reused across feeds, so the result
			// must be copied before feeding the rest.
			segs := append([]*Segment(nil), tk.take()...)
			tk.feed(events[cut:])
			return append(segs, tk.take()...)
		})
	}
	check("one-at-a-time", func(tk *tokenizer) []*Segment {
		var segs []*Segment
		for i := range events {
			tk.feed(events[i : i+1])
			segs = append(segs, tk.take()...)
		}
		return segs
	})
}

// TestThreadAnalyzerFinishIdempotent: Finish is the terminal state; a
// second call returns the same result and Feed panics.
func TestThreadAnalyzerFinishIdempotent(t *testing.T) {
	p := NewPipeline(bytecode.MustAssemble(fig2Src), DefaultPipelineConfig())
	a := p.NewThreadAnalyzer(0, nil)
	ctx := context.Background()
	a.Feed(ctx, nil)
	res := a.Finish(ctx, p.Matcher.NewScratch())
	if res2 := a.Finish(ctx, p.Matcher.NewScratch()); res2 != res {
		t.Fatal("second Finish returned a different result")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Feed after Finish did not panic")
		}
	}()
	a.Feed(ctx, nil)
}

func TestPipelineConfigValidate(t *testing.T) {
	if err := DefaultPipelineConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*PipelineConfig){
		func(c *PipelineConfig) { c.Workers = -1 },
		func(c *PipelineConfig) { c.Recovery.AnchorLen = -1 },
		func(c *PipelineConfig) { c.Recovery.TopN = -2 },
		func(c *PipelineConfig) { c.Recovery.TimeBudgetSlack = -0.5 },
		func(c *PipelineConfig) { c.Recovery.TimeBudgetSlack = math.NaN() },
	}
	for i, mut := range bad {
		c := DefaultPipelineConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// crashSource wraps the default trace source. Its decoders lower every
// item to one ILOAD template event, and the crashAt-th DecodeChunk call
// (counted from 0 across all its decoders) panics.
type crashSource struct {
	source.Source
	calls, crashAt int
}

func (s *crashSource) NewDecoder(snap *meta.Snapshot) source.Decoder {
	return &crashDecoder{Decoder: s.Source.NewDecoder(snap), src: s}
}

type crashDecoder struct {
	source.Decoder
	src *crashSource
	out []source.Event
}

func (d *crashDecoder) DecodeChunk(items []source.Item) []source.Event {
	d.src.calls++
	if d.src.calls-1 == d.src.crashAt {
		panic("injected decode crash")
	}
	d.out = d.out[:0]
	for range items {
		d.out = append(d.out, source.Event{Kind: source.EvTemplate, Op: bytecode.ILOAD})
	}
	return d.out
}

// TestFeedCrashQuarantinesOnlyDroppedItems: a decoder crash in a delta's
// k-th sub-chunk keeps the tokens of the k sub-chunks before it, so the
// stage-crash ledger entry counts only the items from the crashing
// sub-chunk on, and the rebuilt decoder decodes the next delta.
func TestFeedCrashQuarantinesOnlyDroppedItems(t *testing.T) {
	const k = 2
	cfg := DefaultPipelineConfig()
	cfg.Source = &crashSource{Source: source.Default(), crashAt: k}
	p := NewPipeline(bytecode.MustAssemble(fig2Src), cfg)
	a := p.NewThreadAnalyzer(0, nil)
	ledger := fault.NewLedger(nil)
	a.SetLedger(ledger)
	ctx := context.Background()

	delta := make([]source.Item, 4*feedChunk+100)
	for i := range delta {
		delta[i].Packet.WireLen = uint8(1 + i%7)
	}
	a.Feed(ctx, delta)
	var kept int
	for _, j := range a.jobs {
		kept += len(j.seg.Tokens)
	}
	if kept != k*feedChunk {
		t.Errorf("tokens kept before the crash = %d, want %d", kept, k*feedChunk)
	}
	es := ledger.Entries()
	if len(es) != 1 || es[0].Reason != fault.ReasonStageCrash {
		t.Fatalf("ledger entries = %+v, want one stage crash", es)
	}
	dropped := delta[k*feedChunk:]
	if es[0].Items != len(dropped) || es[0].Bytes != source.PayloadBytes(dropped) {
		t.Errorf("stage crash entry covers %d items (%d bytes), want %d (%d)",
			es[0].Items, es[0].Bytes, len(dropped), source.PayloadBytes(dropped))
	}

	later := delta[:100]
	a.Feed(ctx, later)
	if n := len(a.tk.cur.Tokens); n != len(later) {
		t.Errorf("later delta lowered %d tokens, want %d", n, len(later))
	}
	if n := len(ledger.Entries()); n != 1 {
		t.Errorf("later delta added %d ledger entries", n-1)
	}
}
