package source

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

var testTraits = &Traits{
	Name:       "test",
	MaxKind:    3,
	KindNames:  []string{"TIME", "SYNC", "TNT", "IP"},
	Roles:      Roles{Time: 0, Sync: 1, Branches: 2, Target: 3},
	TimeMask:   1<<0 | 1<<1,
	MaxTNTBits: 7,
}

func TestTraitsProbes(t *testing.T) {
	tr := testTraits
	for k := Kind(0); k <= tr.MaxKind; k++ {
		if got := tr.IsTime(k); got != (k <= 1) {
			t.Errorf("IsTime(%d) = %v", k, got)
		}
		if got := tr.IsSync(k); got != (k == 1) {
			t.Errorf("IsSync(%d) = %v", k, got)
		}
		if got := tr.IsTNT(k); got != (k == 2) {
			t.Errorf("IsTNT(%d) = %v", k, got)
		}
	}
	// Kinds at or past 64 must not index past the masks.
	if tr.IsTime(64) || tr.IsSync(200) || tr.IsTNT(255) {
		t.Error("mask probe out of range returned true")
	}
}

func TestTraitsValidateAndClassify(t *testing.T) {
	tr := testTraits
	cases := []struct {
		name string
		it   Item
		bad  bool
	}{
		{"ok packet", Item{Packet: Packet{Kind: 3, IP: 0x1000}}, false},
		{"ok tnt", Item{Packet: Packet{Kind: 2, NBits: 7}}, false},
		{"unknown kind", Item{Packet: Packet{Kind: 9}}, true},
		{"truncated kind", Item{Packet: Packet{Kind: tr.TruncatedKind()}}, true},
		{"tnt too long", Item{Packet: Packet{Kind: 2, NBits: 8}}, true},
		{"ok gap", GapItem(0, 5, 9), false},
		{"inverted gap", GapItem(0, 9, 5), true},
	}
	for _, tc := range cases {
		err := tr.ValidateItem(&tc.it)
		if (err != nil) != tc.bad {
			t.Errorf("%s: ValidateItem err = %v, want bad=%v", tc.name, err, tc.bad)
		}
		if tc.it.IsGap() {
			continue
		}
		if _, bad := tr.ClassifyPacket(&tc.it.Packet); bad != tc.bad {
			t.Errorf("%s: ClassifyPacket bad = %v, want %v", tc.name, bad, tc.bad)
		}
	}
}

func TestSkewTimeOnlyTouchesTimeKinds(t *testing.T) {
	tr := testTraits
	p := Packet{Kind: 0, TSC: 100}
	tr.SkewTime(&p, 7)
	if p.TSC != 107 {
		t.Errorf("time packet TSC = %d, want 107", p.TSC)
	}
	p = Packet{Kind: 3, TSC: 100}
	tr.SkewTime(&p, 7)
	if p.TSC != 100 {
		t.Errorf("non-time packet TSC = %d, want 100", p.TSC)
	}
}

// TestRecordSizes guards the layout of the pipeline records. Every trace
// item is copied several times between archive read and tokenize (chunk
// decode, session feed, stitcher pending, carve window, thread delta), and
// the decoder emits one Event per template dispatch, JIT range and time
// update, so each byte of Packet, Item or Event is paid per packet or per
// event. A field that re-pads them (a new word, or a byte field between
// the words) must be a deliberate choice, made by editing this test.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Packet", unsafe.Sizeof(Packet{}), 32},
		{"Item", unsafe.Sizeof(Item{}), 32},
		{"Event", unsafe.Sizeof(Event{}), 48},
	} {
		if c.got > c.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want at most %d", c.name, c.got, c.want)
		}
	}
}

// wireItems covers both record tags, every payload field, and a gap whose
// episode words are all set, so a gap field that stopped sharing the
// packet's payload words would show.
var wireItems = []Item{
	{Packet: Packet{Kind: 1, TSC: 42, WireLen: 16}},
	{Packet: Packet{Kind: 2, Bits: 0x55, NBits: 7, WireLen: 2}},
	GapItem(99, 50, 60),
	{Packet: Packet{Kind: 3, IP: 0xdeadbeef, Bits: 1, TSC: 7, WireLen: 5}},
	GapItem(^uint64(0), 1<<40, 1<<41),
}

func TestWireRoundTrip(t *testing.T) {
	var rec []byte
	for i := range wireItems {
		rec = AppendItem(rec, &wireItems[i])
	}
	for i := range wireItems {
		got, n, err := DecodeItem(rec, testTraits)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if got != wireItems[i] {
			t.Errorf("item %d: got %+v, want %+v", i, got, wireItems[i])
		}
		rec = rec[n:]
	}
	if len(rec) != 0 {
		t.Fatalf("%d bytes left after %d items", len(rec), len(wireItems))
	}
}

// TestWireBytesPinned pins the record bytes of one packet and one gap:
// archives written before the in-memory records shrank must read back, and
// new ones must stay byte-identical.
func TestWireBytesPinned(t *testing.T) {
	pkt := Item{Packet: Packet{Kind: 3, NBits: 2, WireLen: 5, IP: 0x0102, Bits: 0x03, TSC: 0x0405}}
	gap := GapItem(0x10, 0x20, 0x30)
	want := "01030205" + "0201000000000000" + "0300000000000000" + "0504000000000000" +
		"02" + "1000000000000000" + "2000000000000000" + "3000000000000000"
	if got := hex.EncodeToString(AppendItem(AppendItem(nil, &pkt), &gap)); got != want {
		t.Fatalf("record bytes\n got %s\nwant %s", got, want)
	}
}

// TestItemGobRoundTrip: the session checkpoint gob-encodes stitcher items,
// so the gap flag and the episode words must survive gob, which sees only
// exported fields.
func TestItemGobRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wireItems); err != nil {
		t.Fatal(err)
	}
	var got []Item
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, wireItems) {
		t.Fatalf("gob round trip:\n got %+v\nwant %+v", got, wireItems)
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	bad := Item{Packet: Packet{Kind: 2, NBits: 40}}
	if _, _, err := DecodeItem(AppendItem(nil, &bad), testTraits); !errors.Is(err, ErrMalformed) {
		t.Fatalf("hostile TNT length survived DecodeItem validation: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	Register(&Traits{Name: "test-only"})
	s, err := Lookup("test-only")
	if err != nil || s.ID() != "test-only" {
		t.Fatalf("Lookup(test-only) = %v, %v", s, err)
	}
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "test-only") {
		t.Fatalf("Lookup(nope) err = %v, want error naming registered sources", err)
	}
	found := false
	for _, id := range Registered() {
		if id == "test-only" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Registered() = %v missing test-only", Registered())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(&Traits{Name: "test-only"})
}
