package etrace

import (
	"bytes"
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/isa"
	"jportal/internal/meta"
	"jportal/internal/pt"
	"jportal/internal/source"
)

// buildWorld mirrors internal/pt's walker-test world: a template table
// entry per opcode and two tiny compiled blobs (A: linear, jcc over A2,
// ret; B: linear, call A, linear, ret).
func buildWorld(t testing.TB) *meta.Snapshot {
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
	aA.PatchTarget(jcc, retA)
	codeA := aA.Finish()

	baseB := meta.CodeCacheBase + 0x1000
	aB := isa.NewAssembler("B", baseB)
	aB.Emit(isa.Linear, 4, 0, "B0")
	aB.Emit(isa.Call, 5, baseA, "B1")
	aB.Emit(isa.Linear, 4, 0, "B2")
	aB.Emit(isa.Ret, 1, 0, "B3")
	codeB := aB.Finish()

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
	snap.Export(mk(0, codeA))
	snap.Export(mk(1, codeB))
	return snap
}

func pkt(kind Kind, ip uint64) source.Item {
	return source.Item{Packet: source.Packet{Kind: kind, IP: ip, WireLen: 4}}
}

func bmap(bits ...bool) source.Item {
	p := source.Packet{Kind: KBranch, NBits: uint8(len(bits)), WireLen: 2}
	for i, b := range bits {
		if b {
			p.Bits |= 1 << uint(i)
		}
	}
	return source.Item{Packet: p}
}

// TestWalkBranchMap checks the decoder walks a compiled blob consuming
// branch-map bits, mirroring internal/pt's walk tests: not-taken visits
// every instruction (4), taken skips A2 (3 walked, index 2 never appears).
func TestWalkBranchMap(t *testing.T) {
	snap := buildWorld(t)
	base := meta.CodeCacheBase
	retStub := snap.Stubs.RetEntry.Start
	for _, tc := range []struct {
		taken bool
		total int
	}{
		{false, 4}, // falls through: A0,A1,A2,A3
		{true, 3},  // jcc taken: A0,A1,A3
	} {
		d := source.NewWalker(traits, snap)
		ev := d.Decode([]source.Item{pkt(KAddr, base), bmap(tc.taken), pkt(KAddr, retStub)})
		total := 0
		for _, e := range ev {
			if e.Kind == source.EvJITRange {
				total += int(e.Last - e.First)
				for i := e.First; i < e.Last; i++ {
					if tc.taken && i == 2 {
						t.Error("A2 executed on taken path")
					}
				}
			}
		}
		if total != tc.total {
			t.Errorf("taken=%v: walked %d instrs, want %d (events %v)", tc.taken, total, tc.total, ev)
		}
		if d.Desyncs != 0 {
			t.Errorf("taken=%v: desyncs %d", tc.taken, d.Desyncs)
		}
	}
}

// TestTemplateDispatch checks interpreter-template addresses decode to
// dispatch events carrying the opcode, with branch bits attributed to the
// conditional template.
func TestTemplateDispatch(t *testing.T) {
	snap := buildWorld(t)
	tmpl := snap.Templates
	d := source.NewWalker(traits, snap)
	ev := d.Decode([]source.Item{
		pkt(KAddr, tmpl.Entry(bytecode.ILOAD)),
		pkt(KAddr, tmpl.Entry(bytecode.IFEQ)),
		bmap(true),
		pkt(KAddr, tmpl.Entry(bytecode.IRETURN)),
	})
	var ops []bytecode.Opcode
	var dirs []bool
	for _, e := range ev {
		switch e.Kind {
		case source.EvTemplate:
			ops = append(ops, e.Op)
		case source.EvTemplateTNT:
			dirs = append(dirs, e.Taken)
			if e.Op != bytecode.IFEQ {
				t.Errorf("branch bit attributed to %v", e.Op)
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

// TestTrapAddrPairDoesNotDesync checks the KTrap→KAddr async pairing: the
// address lands without a desync, exactly like PT's FUP→TIP.
func TestTrapAddrPairDoesNotDesync(t *testing.T) {
	snap := buildWorld(t)
	base := meta.CodeCacheBase
	d := source.NewWalker(traits, snap)
	d.Decode([]source.Item{
		pkt(KStart, base),
		pkt(KTrap, base+4),
		pkt(KAddr, base+0x1000),
		pkt(KStop, 0),
	})
	if d.Desyncs != 0 {
		t.Fatalf("desyncs = %d, want 0", d.Desyncs)
	}
}

// TestMalformedPacketSkipsToSync checks fault handling: an unknown kind
// desynchronises the decoder, packets are skipped until the next KSync, and
// the fault is recorded.
func TestMalformedPacketSkipsToSync(t *testing.T) {
	snap := buildWorld(t)
	base := meta.CodeCacheBase
	d := source.NewWalker(traits, snap)
	d.Decode([]source.Item{
		pkt(KStart, base),
		{Packet: source.Packet{Kind: Kind(0x7f), WireLen: 4}}, // malformed
		pkt(KAddr, base+0x1000),                               // must be skipped
		{Packet: source.Packet{Kind: KSync, TSC: 99, WireLen: traits.Wire.SyncLen}},
		pkt(KStart, base),
	})
	if d.FaultCount != 1 {
		t.Fatalf("FaultCount = %d, want 1", d.FaultCount)
	}
	if d.SkippedPackets == 0 {
		t.Fatalf("no packets skipped before resync")
	}
	if tsc := d.ExportState().TSC; tsc != 99 {
		t.Fatalf("TSC after sync = %d, want 99 (sync carries time)", tsc)
	}
}

// controlFlow filters decode events down to the backend-independent
// control-flow stream (time events depend on each source's sync cadence).
func controlFlow(events []source.Event) []source.Event {
	var out []source.Event
	for _, e := range events {
		if e.Kind == source.EvTime {
			continue
		}
		e.TSC = 0 // timestamps track each backend's time-packet cadence
		out = append(out, e)
	}
	return out
}

// TestLosslessDecodeMatchesPT drives the PT and E-Trace collectors with an
// identical logical event sequence (buffers big enough that nothing is
// lost) and checks both backends decode to the same control-flow events —
// the heart of the ISA-agnostic contract.
func TestLosslessDecodeMatchesPT(t *testing.T) {
	snap := buildWorld(t)
	base := meta.CodeCacheBase

	cfg := source.DefaultCollectorConfig()
	drive := func(col *source.Collector) []source.CoreTrace {
		tsc := uint64(100)
		col.PGE(0, base, tsc)
		for i := 0; i < 200; i++ {
			tsc += 7
			col.TNT(0, base+4, i%3 == 0, tsc)
			if i%5 == 0 {
				tsc += 3
				col.TIP(0, base+0x1000, tsc)
				tsc += 3
				col.TIP(0, base, tsc)
			}
			if i%31 == 0 {
				col.SwitchMark(0, tsc)
			}
		}
		col.FUP(0, base+4, tsc+1)
		col.TIP(0, base+0x1000, tsc+2)
		col.PGD(0, 0, tsc+3)
		return col.Finish(tsc + 10)
	}

	ptTr := drive(pt.Traits().NewCollector(cfg, 1))
	etTr := drive(traits.NewCollector(cfg, 1))
	for _, tr := range [][]source.CoreTrace{ptTr, etTr} {
		if tr[0].LostBytes() != 0 {
			t.Fatalf("expected lossless run, lost %d bytes", tr[0].LostBytes())
		}
	}

	ptEv := controlFlow(source.NewWalker(pt.Traits(), snap).Decode(ptTr[0].Items))
	etEv := controlFlow(source.NewWalker(traits, snap).Decode(etTr[0].Items))
	if len(ptEv) != len(etEv) {
		t.Fatalf("event counts differ: pt %d, etrace %d", len(ptEv), len(etEv))
	}
	for i := range ptEv {
		if ptEv[i] != etEv[i] {
			t.Fatalf("event %d differs:\n  pt     %+v\n  etrace %+v", i, ptEv[i], etEv[i])
		}
	}

	// The wire models differ: E-Trace's differential addresses and packed
	// branch maps should not be larger than PT's encoding of the same run.
	var ptBytes, etBytes uint64
	for i := range ptTr[0].Items {
		ptBytes += uint64(ptTr[0].Items[i].Packet.WireLen)
	}
	for i := range etTr[0].Items {
		etBytes += uint64(etTr[0].Items[i].Packet.WireLen)
	}
	t.Logf("wire bytes: pt=%d etrace=%d", ptBytes, etBytes)
	if etBytes > ptBytes {
		t.Errorf("etrace encoding (%d B) larger than PT (%d B)", etBytes, ptBytes)
	}
}

// TestWireRoundTrip checks the neutral wire format round-trips E-Trace
// traces under this source's traits.
func TestWireRoundTrip(t *testing.T) {
	cfg := source.DefaultCollectorConfig()
	col := traits.NewCollector(cfg, 1)
	col.PGE(0, meta.CodeCacheBase, 1)
	for i := 0; i < 64; i++ {
		col.TNT(0, meta.CodeCacheBase+4, i%2 == 0, uint64(10+i*9))
	}
	tr := col.Finish(1000)[0]

	got, err := decodeRecords(encodeRecords(tr.Items))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr.Items) {
		t.Fatalf("round-trip items %d, want %d", len(got), len(tr.Items))
	}
	for i := range got {
		if got[i] != tr.Items[i] {
			t.Fatalf("item %d differs: %+v vs %+v", i, got[i], tr.Items[i])
		}
	}
}

// encodeRecords frames items as one run of item records, the payload a
// chunk record carries.
func encodeRecords(items []source.Item) []byte {
	var rec []byte
	for i := range items {
		rec = source.AppendItem(rec, &items[i])
	}
	return rec
}

// decodeRecords reads a run of item records back with source.DecodeItem,
// validating each against this source's traits.
func decodeRecords(rec []byte) ([]source.Item, error) {
	var items []source.Item
	for len(rec) > 0 {
		it, n, err := source.DecodeItem(rec, Traits())
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		rec = rec[n:]
	}
	return items, nil
}

// TestTraitsValidation pins this source's bounds: branch maps beyond
// MaxBranchBits and unknown kinds are malformed.
func TestTraitsValidation(t *testing.T) {
	cases := []struct {
		it  source.Item
		bad bool
	}{
		{source.Item{Packet: source.Packet{Kind: KBranch, NBits: MaxBranchBits}}, false},
		{source.Item{Packet: source.Packet{Kind: KBranch, NBits: MaxBranchBits + 1}}, true},
		{source.Item{Packet: source.Packet{Kind: KTrap}}, false},
		{source.Item{Packet: source.Packet{Kind: Kind(0x40)}}, true},
		{source.GapItem(0, 5, 3), true},
	}
	for i, tc := range cases {
		err := Traits().ValidateItem(&tc.it)
		if (err != nil) != tc.bad {
			t.Errorf("case %d: ValidateItem = %v, want bad=%v", i, err, tc.bad)
		}
	}
}

// FuzzDecode mirrors the PT hardening contract for the E-Trace
// backend: arbitrary item-record bytes must never panic the record reader
// or the decoder, and every accepted run of records must hold only valid
// items and re-encode to the same bytes (faults and desyncs are the
// contract for garbage, panics are not).
func FuzzDecode(f *testing.F) {
	cfg := source.DefaultCollectorConfig()
	col := traits.NewCollector(cfg, 1)
	col.PGE(0, meta.CodeCacheBase, 1)
	for i := 0; i < 40; i++ {
		col.TNT(0, meta.CodeCacheBase+4, i%2 == 0, uint64(10+i*9))
		if i%7 == 0 {
			col.TIP(0, meta.CodeCacheBase+0x1000, uint64(11+i*9))
			col.TIP(0, meta.CodeCacheBase, uint64(12+i*9))
		}
	}
	tr := col.Finish(1000)[0]
	f.Add(encodeRecords(tr.Items))
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(encodeRecords([]source.Item{{Packet: source.Packet{Kind: KBranch, NBits: 255, Bits: ^uint64(0)}}}))
	f.Add(encodeRecords([]source.Item{{Packet: source.Packet{Kind: Kind(0x7f), IP: 0xdead}}}))
	f.Add(encodeRecords([]source.Item{source.GapItem(1<<60, 100, 1)}))

	snap := buildWorld(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeRecords(data)
		if err != nil {
			return
		}
		for i := range got {
			if err := Traits().ValidateItem(&got[i]); err != nil {
				t.Fatalf("accepted records hold invalid item %d: %v", i, err)
			}
		}
		d := source.NewWalker(traits, snap)
		d.Decode(got) // must not panic
		if !bytes.Equal(encodeRecords(got), data) {
			t.Fatal("accepted records do not re-encode to the same bytes")
		}
	})
}
