package source

import (
	"errors"
	"strings"
	"testing"
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
		{"ok gap", Item{Gap: true, GapStart: 5, GapEnd: 9}, false},
		{"inverted gap", Item{Gap: true, GapStart: 9, GapEnd: 5}, true},
	}
	for _, tc := range cases {
		err := tr.ValidateItem(&tc.it)
		if (err != nil) != tc.bad {
			t.Errorf("%s: ValidateItem err = %v, want bad=%v", tc.name, err, tc.bad)
		}
		if tc.it.Gap {
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

func TestWireRoundTrip(t *testing.T) {
	want := []Item{
		{Packet: Packet{Kind: 1, TSC: 42, WireLen: 16}},
		{Packet: Packet{Kind: 2, Bits: 0x55, NBits: 7, WireLen: 2}},
		{Gap: true, LostBytes: 99, GapStart: 50, GapEnd: 60},
		{Packet: Packet{Kind: 3, IP: 0xdeadbeef, WireLen: 5}},
	}
	var rec []byte
	for i := range want {
		rec = AppendItem(rec, &want[i])
	}
	for i := range want {
		got, n, err := DecodeItem(rec, testTraits)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if got != want[i] {
			t.Errorf("item %d: got %+v, want %+v", i, got, want[i])
		}
		rec = rec[n:]
	}
	if len(rec) != 0 {
		t.Fatalf("%d bytes left after %d items", len(rec), len(want))
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
