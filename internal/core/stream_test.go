package core

import (
	"context"
	"math"
	"reflect"
	"testing"
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
	prog, m := fig2Matcher(t)
	p := &Pipeline{Prog: prog, Matcher: m, Cfg: DefaultPipelineConfig()}
	a := p.NewThreadAnalyzer(0, nil)
	ctx := context.Background()
	a.Feed(ctx, nil)
	res := a.Finish(ctx)
	if res2 := a.Finish(ctx); res2 != res {
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
