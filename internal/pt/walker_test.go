package pt

import (
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/isa"
	"jportal/internal/meta"
	"jportal/internal/source"
)

// testWorld builds a snapshot with one template table entry per opcode used
// and two tiny compiled blobs:
//
//	blobA (base 0x...0000):  linear; jcc->A2; linear; ret          (A0 A1 A2 A3)
//	                         taken target of the jcc is A3's addr? no: A2
//	blobB (base 0x...1000):  linear; call A; linear; ret
type testWorld struct {
	snap  *meta.Snapshot
	blobA *meta.CompiledMethod
	blobB *meta.CompiledMethod
}

func buildWorld(t *testing.T) *testWorld {
	t.Helper()
	tt := meta.NewTemplateTable()
	for op := 0; op < bytecode.NumOpcodes; op++ {
		start := meta.TemplateBase + uint64(op)*0x100
		tt.Add(bytecode.Opcode(op), meta.Range{Start: start, End: start + 0x80})
	}
	snap := meta.NewSnapshot(tt)
	snap.Stubs = meta.Stubs{
		InterpEntry: meta.Range{Start: meta.CodeCacheBase - 0x400, End: meta.CodeCacheBase - 0x3c0},
		RetEntry:    meta.Range{Start: meta.CodeCacheBase - 0x300, End: meta.CodeCacheBase - 0x2c0},
		Unwind:      meta.Range{Start: meta.CodeCacheBase - 0x200, End: meta.CodeCacheBase - 0x1c0},
		ThreadExit:  meta.Range{Start: meta.CodeCacheBase - 0x100, End: meta.CodeCacheBase - 0xc0},
	}

	baseA := meta.CodeCacheBase
	aA := isa.NewAssembler("A", baseA)
	aA.Emit(isa.Linear, 4, 0, "A0")
	jcc := aA.Emit(isa.CondBranch, 6, 0, "A1")
	aA.Emit(isa.Linear, 4, 0, "A2")
	retA := aA.Emit(isa.Ret, 1, 0, "A3")
	aA.PatchTarget(jcc, retA) // taken -> skip A2
	blobACode := aA.Finish()

	baseB := meta.CodeCacheBase + 0x1000
	aB := isa.NewAssembler("B", baseB)
	aB.Emit(isa.Linear, 4, 0, "B0")
	aB.Emit(isa.Call, 5, baseA, "B1") // direct call into blob A
	aB.Emit(isa.Linear, 4, 0, "B2")
	aB.Emit(isa.Ret, 1, 0, "B3")
	blobBCode := aB.Finish()

	mk := func(root bytecode.MethodID, code *isa.Blob) *meta.CompiledMethod {
		var dbg []meta.DebugRecord
		for i, ins := range code.Instrs {
			dbg = append(dbg, meta.DebugRecord{
				Addr:   ins.Addr,
				Frames: []meta.Frame{{Method: root, PC: int32(i)}},
			})
		}
		return &meta.CompiledMethod{Root: root, Tier: 1, Code: code, Debug: dbg}
	}
	w := &testWorld{snap: snap, blobA: mk(0, blobACode), blobB: mk(1, blobBCode)}
	snap.Export(w.blobA)
	snap.Export(w.blobB)
	return w
}

func pkt(kind Kind, ip uint64) source.Item {
	return source.Item{Packet: source.Packet{Kind: kind, IP: ip, WireLen: 4}}
}

func tnt(bits ...bool) source.Item {
	p := source.Packet{Kind: KTNT, NBits: uint8(len(bits)), WireLen: 2}
	for i, b := range bits {
		if b {
			p.Bits |= 1 << uint(i)
		}
	}
	return source.Item{Packet: p}
}

func jitRanges(events []source.Event) [][2]int {
	var out [][2]int
	for _, e := range events {
		if e.Kind == source.EvJITRange {
			out = append(out, [2]int{int(e.First), int(e.Last)})
		}
	}
	return out
}

func TestWalkNotTakenPath(t *testing.T) {
	w := buildWorld(t)
	d := source.NewWalker(traits, w.snap)
	events := d.Decode([]source.Item{
		pkt(KTIP, w.blobA.EntryAddr()),
		tnt(false),                             // jcc not taken: fall through A2
		pkt(KTIP, w.snap.Stubs.RetEntry.Start), // the ret's target
	})
	rs := jitRanges(events)
	// A0,A1 then (after bit) A2,A3; ranges may be split around pauses but
	// their union must be exactly [0,4).
	total := 0
	for _, r := range rs {
		total += r[1] - r[0]
	}
	if total != 4 {
		t.Fatalf("walked %d instrs, want 4; ranges %v (events %v)", total, rs, events)
	}
	if d.Desyncs != 0 {
		t.Errorf("desyncs: %d", d.Desyncs)
	}
}

func TestWalkTakenPathSkipsA2(t *testing.T) {
	w := buildWorld(t)
	d := source.NewWalker(traits, w.snap)
	events := d.Decode([]source.Item{
		pkt(KTIP, w.blobA.EntryAddr()),
		tnt(true), // jcc taken: jump to A3, skipping A2
		pkt(KTIP, w.snap.Stubs.RetEntry.Start),
	})
	total := 0
	for _, r := range jitRanges(events) {
		total += r[1] - r[0]
		for i := r[0]; i < r[1]; i++ {
			if i == 2 {
				t.Error("A2 executed on taken path")
			}
		}
	}
	if total != 3 {
		t.Errorf("walked %d instrs, want 3", total)
	}
}

func TestWalkFollowsDirectCall(t *testing.T) {
	w := buildWorld(t)
	d := source.NewWalker(traits, w.snap)
	// Enter B; B1 calls A directly (no packet); A's jcc taken; A's ret
	// TIPs back to B2; B's ret TIPs to thread exit.
	events := d.Decode([]source.Item{
		pkt(KTIP, w.blobB.EntryAddr()),
		tnt(true),
		pkt(KTIP, w.blobB.Code.Instrs[2].Addr), // ret from A to B2
		pkt(KTIP, w.snap.Stubs.ThreadExit.Start),
	})
	// Expected instruction count: B0,B1 + A0,A1,A3 + B2,B3 = 7.
	total := 0
	sawBlobA := false
	for _, e := range events {
		if e.Kind == source.EvJITRange {
			total += int(e.Last - e.First)
			if e.Blob == w.blobA {
				sawBlobA = true
			}
		}
	}
	if !sawBlobA {
		t.Error("walk never entered the callee blob")
	}
	if total != 7 {
		t.Errorf("walked %d instrs, want 7", total)
	}
	if d.Desyncs != 0 {
		t.Errorf("desyncs: %d", d.Desyncs)
	}
}

func TestTemplateDispatchDecoding(t *testing.T) {
	w := buildWorld(t)
	d := source.NewWalker(traits, w.snap)
	tmpl := w.snap.Templates
	events := d.Decode([]source.Item{
		pkt(KTIP, tmpl.Entry(bytecode.ILOAD)),
		pkt(KTIP, tmpl.Entry(bytecode.IFEQ)),
		tnt(true),
		pkt(KTIP, tmpl.Entry(bytecode.IRETURN)),
	})
	var ops []bytecode.Opcode
	var dirs []bool
	for _, e := range events {
		switch e.Kind {
		case source.EvTemplate:
			ops = append(ops, e.Op)
		case source.EvTemplateTNT:
			dirs = append(dirs, e.Taken)
			if e.Op != bytecode.IFEQ {
				t.Errorf("TNT attributed to %v", e.Op)
			}
		}
	}
	if len(ops) != 3 || ops[0] != bytecode.ILOAD || ops[1] != bytecode.IFEQ || ops[2] != bytecode.IRETURN {
		t.Errorf("ops: %v", ops)
	}
	if len(dirs) != 1 || !dirs[0] {
		t.Errorf("dirs: %v", dirs)
	}
}

func TestGapSplitsAndFUPResync(t *testing.T) {
	w := buildWorld(t)
	d := source.NewWalker(traits, w.snap)
	jccAddr := w.blobA.Code.Instrs[1].Addr
	events := d.Decode([]source.Item{
		pkt(KTIP, w.blobA.EntryAddr()),
		source.GapItem(100, 10, 20),
		// Resync: FUP anchors at the conditional, bits follow.
		pkt(KFUP, jccAddr),
		tnt(false),
		pkt(KTIP, w.snap.Stubs.RetEntry.Start),
	})
	gaps := 0
	total := 0
	for _, e := range events {
		switch e.Kind {
		case source.EvGap:
			gaps++
			if e.LostBytes != 100 {
				t.Errorf("gap bytes %d", e.LostBytes)
			}
		case source.EvJITRange:
			total += int(e.Last - e.First)
		}
	}
	if gaps != 1 {
		t.Fatalf("gaps %d", gaps)
	}
	// Pre-gap walk covered A0; post-FUP walk covers A1 (the jcc), A2, A3.
	if total != 4 {
		t.Errorf("walked %d instrs, want 4", total)
	}
}

func TestAsyncFUPTIPPairDoesNotDesync(t *testing.T) {
	w := buildWorld(t)
	d := source.NewWalker(traits, w.snap)
	// Walk into A (stops at the jcc waiting for bits), then an async
	// FUP+TIP pair rips control to blob B (exception/OSR semantics).
	events := d.Decode([]source.Item{
		pkt(KTIP, w.blobA.EntryAddr()),
		pkt(KFUP, w.blobA.Code.Instrs[1].Addr),
		pkt(KTIP, w.blobB.EntryAddr()),
		tnt(true),
		pkt(KTIP, w.blobB.Code.Instrs[2].Addr),
		pkt(KTIP, w.snap.Stubs.ThreadExit.Start),
	})
	if d.Desyncs != 0 {
		t.Fatalf("async transfer desynced: %d (events %v)", d.Desyncs, events)
	}
}

func TestTIPWithoutPendingIndirectDesyncs(t *testing.T) {
	w := buildWorld(t)
	d := source.NewWalker(traits, w.snap)
	// Land in A, then a TIP arrives while the walker waits at the jcc
	// (no FUP): the metadata and trace disagree.
	d.Decode([]source.Item{
		pkt(KTIP, w.blobA.EntryAddr()),
		pkt(KTIP, w.blobB.EntryAddr()),
	})
	if d.Desyncs != 1 {
		t.Errorf("desyncs = %d, want 1", d.Desyncs)
	}
}

func TestPGEAnchorsAndPGDSuspends(t *testing.T) {
	w := buildWorld(t)
	d := source.NewWalker(traits, w.snap)
	jccAddr := w.blobA.Code.Instrs[1].Addr
	events := d.Decode([]source.Item{
		pkt(KPGE, jccAddr), // resume mid-blob (sched-in)
		tnt(false),
		pkt(KPGD, w.blobA.Code.Instrs[3].Addr),
		tnt(true, true, true), // bits while disabled: dropped, no desync
	})
	total := 0
	for _, e := range events {
		if e.Kind == source.EvJITRange {
			total += int(e.Last - e.First)
		}
	}
	if total != 2 { // A1, A2 (walk pauses at the ret)
		t.Errorf("walked %d, want 2", total)
	}
	if d.Desyncs != 0 {
		t.Errorf("desyncs %d", d.Desyncs)
	}
	if d.DroppedBits != 3 {
		t.Errorf("dropped %d bits, want 3", d.DroppedBits)
	}
}
