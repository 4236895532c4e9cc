package fault

import (
	"testing"

	"jportal/internal/metrics"
	"jportal/internal/pt"
	"jportal/internal/source"
	"jportal/internal/vm"
)

// syntheticItems builds n plausible packets for core-stream injection tests.
func syntheticItems(n int) []source.Item {
	items := make([]source.Item, n)
	for i := range items {
		switch i % 4 {
		case 0:
			items[i] = source.Item{Packet: source.Packet{Kind: pt.KTSC, TSC: uint64(1000 + i)}}
		case 1:
			items[i] = source.Item{Packet: source.Packet{Kind: pt.KTIP, IP: uint64(0x40000 + i*16)}}
		case 2:
			items[i] = source.Item{Packet: source.Packet{Kind: pt.KTNT, Bits: uint64(i), NBits: 8}}
		default:
			items[i] = source.Item{Packet: source.Packet{Kind: pt.KFUP, IP: uint64(0x50000 + i*16)}}
		}
		items[i].Packet.WireLen = 8
	}
	return items
}

func syntheticSideband(n int) []vm.SwitchRecord {
	recs := make([]vm.SwitchRecord, n)
	for i := range recs {
		recs[i] = vm.SwitchRecord{Core: i % 2, TSC: uint64(100 * (i + 1)), Thread: i % 3}
	}
	return recs
}

func TestRateZeroIsIdentity(t *testing.T) {
	in := NewInjector(Matrix{Seed: 42}, pt.Traits(), nil)
	items := syntheticItems(600)
	if got := in.Items(0, items); &got[0] != &items[0] || len(got) != len(items) {
		t.Fatal("zero-rate Items did not return the input slice unchanged")
	}
	recs := syntheticSideband(50)
	if got := in.Sideband(recs); &got[0] != &recs[0] {
		t.Fatal("zero-rate Sideband did not return the input slice unchanged")
	}
	if got := in.Snapshot(nil); got != nil {
		t.Fatal("zero-rate Snapshot(nil) != nil")
	}
	if n := len(in.Counts()); n != 0 {
		t.Fatalf("zero-rate run counted %d fault classes", n)
	}
}

func TestScaleClamps(t *testing.T) {
	m := DefaultMatrix(1).Scale(1e6)
	for _, p := range []float64{m.BitFlip, m.Truncate, m.ChunkDrop, m.ChunkDup,
		m.SidebandTear, m.SidebandReorder, m.StaleJIT} {
		if p < 0 || p > 1 {
			t.Fatalf("scaled probability %v out of [0,1]", p)
		}
	}
	z := DefaultMatrix(1).Scale(0)
	if z.traceActive() || z.sidebandActive() || z.StaleJIT != 0 {
		t.Fatal("Scale(0) left a fault class active")
	}
}

// TestDeterministicAcrossCoreOrder feeds the same per-core streams to two
// injectors in opposite core orders: outputs must match per core, because
// each core draws from its own seed-derived RNG stream.
func TestDeterministicAcrossCoreOrder(t *testing.T) {
	m := DefaultMatrix(7)
	perCore := map[int][]source.Item{0: syntheticItems(1024), 1: syntheticItems(1024), 2: syntheticItems(1024)}

	run := func(order []int) map[int][]source.Item {
		in := NewInjector(m, pt.Traits(), nil)
		out := make(map[int][]source.Item)
		for _, core := range order {
			out[core] = in.Items(core, perCore[core])
		}
		return out
	}
	a := run([]int{0, 1, 2})
	b := run([]int{2, 1, 0})
	for core := range perCore {
		if len(a[core]) != len(b[core]) {
			t.Fatalf("core %d: %d vs %d items across feed orders", core, len(a[core]), len(b[core]))
		}
		for i := range a[core] {
			if a[core][i] != b[core][i] {
				t.Fatalf("core %d item %d differs across feed orders", core, i)
			}
		}
	}
}

// TestDeterministicAcrossChunking feeds one core's stream whole and in
// chunk-aligned pieces: identical corruption either way.
func TestDeterministicAcrossChunking(t *testing.T) {
	m := DefaultMatrix(11)
	items := syntheticItems(4 * chunkItems)

	whole := NewInjector(m, pt.Traits(), nil).Items(0, items)

	in := NewInjector(m, pt.Traits(), nil)
	var pieces []source.Item
	for off := 0; off < len(items); off += chunkItems {
		pieces = append(pieces, in.Items(0, items[off:off+chunkItems])...)
	}
	if len(whole) != len(pieces) {
		t.Fatalf("%d vs %d items across chunkings", len(whole), len(pieces))
	}
	for i := range whole {
		if whole[i] != pieces[i] {
			t.Fatalf("item %d differs across chunkings", i)
		}
	}
}

func TestEveryClassCountsDistinctly(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Classes() {
		name := InjectCounterName(c)
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
		if c.Slug() == "unknown" {
			t.Fatalf("class %d has no slug", c)
		}
	}
	for _, r := range Reasons() {
		if r.Slug() == "unknown" {
			t.Fatalf("reason %d has no slug", r)
		}
	}
}

func TestSidebandTearAndReorder(t *testing.T) {
	recs := syntheticSideband(200)
	in := NewInjector(Matrix{Seed: 3, SidebandTear: 1}, pt.Traits(), nil)
	torn := in.Sideband(recs)
	if len(torn) != len(recs) {
		t.Fatalf("tear changed record count: %d vs %d", len(torn), len(recs))
	}
	for i := range torn {
		if torn[i].TSC != 0 {
			t.Fatalf("record %d not torn: TSC %d", i, torn[i].TSC)
		}
		if recs[i].TSC == 0 {
			t.Fatal("input was mutated")
		}
	}
	if in.Counts()["sideband_tear"] != uint64(len(recs)) {
		t.Fatalf("tear count %v", in.Counts())
	}

	in2 := NewInjector(Matrix{Seed: 3, SidebandReorder: 0.5}, pt.Traits(), nil)
	swapped := in2.Sideband(recs)
	if in2.Counts()["sideband_reorder"] == 0 {
		t.Fatal("reorder at 0.5 never fired on 200 records")
	}
	moved := 0
	for i := range swapped {
		if swapped[i] != recs[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("reorder counted but no record moved")
	}
}

func TestInjectorMirrorsRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	in := NewInjector(Matrix{Seed: 9, Truncate: 1}, pt.Traits(), reg)
	in.Items(0, syntheticItems(10))
	if got := reg.Get(InjectCounterName(ClassTruncate)); got != 10 {
		t.Fatalf("registry truncate counter = %d, want 10", got)
	}
}

func TestLedgerNilSafeAndCounts(t *testing.T) {
	var nilLedger *Ledger
	nilLedger.Add(Entry{Reason: ReasonStageCrash}) // must not panic
	if nilLedger.Count(ReasonStageCrash) != 0 || nilLedger.Counts() != nil || nilLedger.Entries() != nil {
		t.Fatal("nil ledger not inert")
	}

	reg := metrics.NewRegistry()
	l := NewLedger(reg)
	l.Add(Entry{Reason: ReasonMalformedPacket, Items: 3, Bytes: 64})
	l.Add(Entry{Reason: ReasonMalformedPacket, Count: 4, Bytes: 16})
	l.Add(Entry{Reason: ReasonLostSync})
	if got := l.Count(ReasonMalformedPacket); got != 5 {
		t.Fatalf("malformed count = %d, want 5", got)
	}
	items, bytes := l.Totals()
	if items != 3 || bytes != 80 {
		t.Fatalf("totals = %d items %d bytes", items, bytes)
	}
	counts := l.Counts()
	if counts["malformed_packet"] != 5 || counts["lost_sync"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if got := reg.Get(QuarantineCounterName(ReasonMalformedPacket)); got != 5 {
		t.Fatalf("registry quarantine counter = %d, want 5", got)
	}
	if len(l.Entries()) != 3 {
		t.Fatalf("entries = %d", len(l.Entries()))
	}
}

func TestLedgerBoundsEntries(t *testing.T) {
	l := NewLedger(nil)
	for i := 0; i < maxLedgerEntries+100; i++ {
		l.Add(Entry{Reason: ReasonStageCrash})
	}
	if n := len(l.Entries()); n != maxLedgerEntries {
		t.Fatalf("retained %d entries, want cap %d", n, maxLedgerEntries)
	}
	if got := l.Count(ReasonStageCrash); got != uint64(maxLedgerEntries+100) {
		t.Fatalf("count %d lost increments past the cap", got)
	}
}
