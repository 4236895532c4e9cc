package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"jportal/internal/bytecode"
	"jportal/internal/cfg"
	"jportal/internal/isa"
	"jportal/internal/meta"
	"jportal/internal/source"
)

// TestTokenIs12Bytes guards Token's layout. Tokens are the offline
// phase's bulk data — one per decoded bytecode instruction, ~400K per
// thread on h2, all held until Finish and copied at every arena refill —
// so every byte of Token is paid per instruction. 12 is Method and PC (8)
// plus Op and the three flags (4) with no padding; a timestamp lives in
// the segment's Clock instead. A field that re-pads Token (a uint64, or
// an int32 after the one-byte fields) must be a deliberate choice, made
// by editing this test.
func TestTokenIs12Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Token{}); got != 12 {
		t.Fatalf("unsafe.Sizeof(Token{}) = %d, want 12", got)
	}
}

// clockBlob is a JIT blob over Test.fun for the random event streams:
// repeated pcs (which collapse), an inline frame, a frameless record and
// an approximate one.
func clockBlob(prog *bytecode.Program) *meta.CompiledMethod {
	fun := prog.MethodByName("Test.fun")
	a := isa.NewAssembler("b", meta.CodeCacheBase)
	for range 6 {
		a.Emit(isa.Linear, 4, 0, "")
	}
	blob := a.Finish()
	fr := func(pc int32) []meta.Frame { return []meta.Frame{{Method: fun.ID, PC: pc}} }
	return &meta.CompiledMethod{
		Root: fun.ID, Tier: 2, Code: blob,
		Debug: []meta.DebugRecord{
			{Addr: blob.Instrs[0].Addr, Frames: fr(0)},
			{Addr: blob.Instrs[1].Addr, Frames: fr(0)},
			{Addr: blob.Instrs[2].Addr, Frames: fr(1), Approximate: true},
			{Addr: blob.Instrs[3].Addr},
			{Addr: blob.Instrs[4].Addr, Frames: append(fr(5), meta.Frame{Method: fun.ID, PC: 2})},
			{Addr: blob.Instrs[5].Addr, Frames: fr(3)},
		},
	}
}

// randomEvents draws n decoder events. Time packets come between and
// around templates, often repeating the current TSC or going backwards;
// breaks (gaps, desyncs, faults) come with probability 1/breakEvery per
// event.
func randomEvents(rng *rand.Rand, n, breakEvery int, cm *meta.CompiledMethod) []source.Event {
	ops := []bytecode.Opcode{bytecode.ILOAD, bytecode.ICONST, bytecode.IADD, bytecode.IFEQ,
		bytecode.IFNE, bytecode.GOTO, bytecode.INVOKESTATIC, bytecode.IRETURN}
	var evs []source.Event
	tsc := uint64(1000)
	for len(evs) < n {
		if rng.Intn(breakEvery) == 0 {
			switch rng.Intn(3) {
			case 0:
				start := tsc
				tsc += uint64(1 + rng.Intn(500))
				evs = append(evs, source.Event{Kind: source.EvGap, LostBytes: uint64(rng.Intn(100)), TSC: start, GapEnd: tsc})
			case 1:
				evs = append(evs, source.Event{Kind: source.EvDesync})
			default:
				evs = append(evs, source.Event{Kind: source.EvFault})
			}
			continue
		}
		switch r := rng.Intn(20); {
		case r < 4:
			switch rng.Intn(4) {
			case 0: // same TSC again: no new mark
			case 1:
				tsc -= uint64(rng.Intn(int(min(tsc, 50))))
			default:
				tsc += uint64(1 + rng.Intn(100))
			}
			evs = append(evs, source.Event{Kind: source.EvTime, TSC: tsc})
		case r < 13:
			op := ops[rng.Intn(len(ops))]
			evs = append(evs, source.Event{Kind: source.EvTemplate, Op: op})
		case r < 16:
			op := bytecode.IFEQ
			if rng.Intn(2) == 0 {
				op = bytecode.IFNE
			}
			evs = append(evs, source.Event{Kind: source.EvTemplateTNT, Op: op, Taken: rng.Intn(2) == 0})
		case r < 19:
			first := rng.Intn(len(cm.Debug))
			last := first + rng.Intn(len(cm.Debug)+2-first) // may overrun: stale metadata
			evs = append(evs, source.Event{Kind: source.EvJITRange, Blob: cm, First: int32(first), Last: int32(last)})
		default:
			kinds := []source.EventKind{source.EvEnable, source.EvDisable, source.EvStub}
			evs = append(evs, source.Event{Kind: kinds[rng.Intn(len(kinds))]})
		}
	}
	return evs
}

// gobRoundTrip passes a tokenizer state through gob, as a checkpoint does.
func gobRoundTrip(t *testing.T, st TokenizerState) TokenizerState {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var out TokenizerState
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// naiveStamps feeds events one at a time and stamps every token an event
// appends with the tokenizer's TSC after that event — the timestamp each
// token carried when Token held its own.
func naiveStamps(prog *bytecode.Program, events []source.Event) []uint64 {
	tk := newTokenizer(prog)
	var stamps []uint64
	done := 0 // tokens in harvested segments
	for i := range events {
		tk.feed(events[i : i+1])
		for _, s := range tk.take() {
			done += len(s.Tokens)
		}
		for len(stamps) < done+len(tk.cur.Tokens) {
			stamps = append(stamps, tk.tsc)
		}
	}
	return stamps
}

// TestClockProperties: random event streams fed in random chunks, with
// the tokenizer's state exported and restored (through gob) at random
// chunk boundaries, yield exactly the tokens and clocks of one batch
// call; every clock is canonical; and the steps read through the clock
// carry the timestamps a per-token stamping gives.
func TestClockProperties(t *testing.T) {
	prog := bytecode.MustAssemble(fig2Src)
	cm := clockBlob(prog)
	g := cfg.BuildICFG(prog, cfg.DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	longest := 0
	for iter := 0; iter < 60; iter++ {
		breakEvery := []int{8, 40, 100000}[iter%3]
		events := randomEvents(rng, 200+rng.Intn(3000), breakEvery, cm)
		want, wantSt := TokenizeEvents(prog, events)

		tk := newTokenizer(prog)
		var got []*Segment
		for pos := 0; pos < len(events); {
			k := min(rng.Intn(64), len(events)-pos)
			tk.feed(events[pos : pos+k])
			pos += k
			got = append(got, tk.take()...)
			if rng.Intn(4) == 0 {
				st := gobRoundTrip(t, tk.exportState())
				tk = newTokenizer(prog)
				tk.restoreState(st)
			}
		}
		got = append(got, tk.finish()...)
		if tk.st != *wantSt {
			t.Fatalf("iter %d: stats %+v, want %+v", iter, tk.st, *wantSt)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d segments, want %d", iter, len(got), len(want))
		}
		for i := range want {
			w, s := want[i], got[i]
			if !reflect.DeepEqual(w.Tokens, s.Tokens) || !reflect.DeepEqual(w.Clock, s.Clock) ||
				!reflect.DeepEqual(w.GapBefore, s.GapBefore) {
				t.Fatalf("iter %d: segment %d diverges from batch", iter, i)
			}
		}

		stamps := naiveStamps(prog, events)
		off := 0
		for i, s := range want {
			if err := s.checkClock(); err != nil {
				t.Fatalf("iter %d segment %d: %v", iter, i, err)
			}
			for k := 1; k < len(s.Clock); k++ {
				if s.Clock[k].TSC == s.Clock[k-1].TSC {
					t.Fatalf("iter %d segment %d: marks %d and %d both carry %d", iter, i, k-1, k, s.Clock[k].TSC)
				}
			}
			longest = max(longest, len(s.Clock))

			// A flow that matched a random subset of the tokens: its steps
			// skip the rest, and must still read the right timestamps.
			f := &SegmentFlow{Seg: s, Nodes: make([]cfg.NodeID, len(s.Tokens)), g: g}
			var wantTSC []uint64
			for j := range f.Nodes {
				f.Nodes[j] = cfg.NoNode
				if rng.Intn(3) != 0 {
					f.Nodes[j] = cfg.NodeID(rng.Intn(g.NumNodes()))
					wantTSC = append(wantTSC, stamps[off+j])
				} else {
					f.Skipped++
				}
			}
			steps := f.Steps()
			if len(steps) != len(wantTSC) {
				t.Fatalf("iter %d segment %d: %d steps, want %d", iter, i, len(steps), len(wantTSC))
			}
			for j := range steps {
				if steps[j].TSC != wantTSC[j] {
					t.Fatalf("iter %d segment %d step %d: TSC %d, want %d", iter, i, j, steps[j].TSC, wantTSC[j])
				}
			}
			off += len(s.Tokens)
		}
		if off != len(stamps) {
			t.Fatalf("iter %d: %d tokens in segments, %d stamped", iter, off, len(stamps))
		}
	}
	// The clock arena must have refilled under an open segment at least
	// once, or the lossless streams were too short to test it.
	if longest <= markSlabSize {
		t.Errorf("longest clock %d marks never exceeded one clock block (%d)", longest, markSlabSize)
	}
}

// TestCheckClock: the checkpoint guard rejects every clock that does not
// cover its tokens, and nothing else.
func TestCheckClock(t *testing.T) {
	toks := make([]Token, 3)
	for _, c := range []struct {
		name  string
		seg   Segment
		valid bool
	}{
		{"no tokens, no clock", Segment{}, true},
		{"one mark", Segment{Tokens: toks, Clock: []TSCMark{{0, 5}}}, true},
		{"mark per token", Segment{Tokens: toks, Clock: []TSCMark{{0, 5}, {1, 6}, {2, 5}}}, true},
		{"tokens, no clock", Segment{Tokens: toks}, false},
		{"first mark past 0", Segment{Tokens: toks, Clock: []TSCMark{{1, 5}}}, false},
		{"repeated At", Segment{Tokens: toks, Clock: []TSCMark{{0, 5}, {1, 6}, {1, 7}}}, false},
		{"decreasing At", Segment{Tokens: toks, Clock: []TSCMark{{0, 5}, {2, 6}, {1, 7}}}, false},
		{"At past the tokens", Segment{Tokens: toks, Clock: []TSCMark{{0, 5}, {3, 6}}}, false},
		{"negative At", Segment{Tokens: toks, Clock: []TSCMark{{0, 5}, {-1, 6}}}, false},
	} {
		if err := c.seg.checkClock(); (err == nil) != c.valid {
			t.Errorf("%s: checkClock() = %v, want valid=%v", c.name, err, c.valid)
		}
	}
}

// TestEnsureAbsMatchesNaive: the exactly-sized tier caches equal a naive
// rebuild by append, for random segments including the empty one.
func TestEnsureAbsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(64)
		if iter == 0 {
			n = 0
		}
		seg := &Segment{Tokens: make([]Token, n)}
		for i := range seg.Tokens {
			seg.Tokens[i].Op = bytecode.Opcode(rng.Intn(bytecode.NumOpcodes))
		}
		for _, l := range []int{1, 2} {
			var abs []int32
			prefix := make([]int32, n+1)
			for i := range seg.Tokens {
				prefix[i] = int32(len(abs))
				if seg.Tokens[i].Tier() <= l {
					abs = append(abs, int32(i))
				}
			}
			prefix[n] = int32(len(abs))
			got := seg.Abstraction(l)
			if len(got) != len(abs) || (len(abs) > 0 && !reflect.DeepEqual(got, abs)) {
				t.Fatalf("iter %d tier %d: Abstraction %v, want %v", iter, l, got, abs)
			}
			if cap(got) != len(got) {
				t.Errorf("iter %d tier %d: Abstraction cap %d, len %d", iter, l, cap(got), len(got))
			}
			for i := 0; i <= n; i++ {
				if p := seg.AbsPrefix(l, i); p != prefix[i] {
					t.Fatalf("iter %d tier %d: AbsPrefix(%d) = %d, want %d", iter, l, i, p, prefix[i])
				}
			}
		}
	}
}
