package pt

import (
	"errors"
	"testing"
)

// FuzzDecodeItem checks the single-record decoder never panics and never
// accepts an item that fails validation — the bounds contract a hostile
// length field must not get past.
func FuzzDecodeItem(f *testing.F) {
	var it Item
	f.Add(AppendItem(nil, &Item{Packet: Packet{Kind: KTSC, TSC: 42, WireLen: 8}}))
	it = Item{Packet: Packet{Kind: KTNT, NBits: 255, Bits: ^uint64(0)}}
	f.Add(AppendItem(nil, &it))
	it = Item{Packet: Packet{Kind: Kind(0xff)}}
	f.Add(AppendItem(nil, &it))
	it = Item{Gap: true, GapStart: 7, GapEnd: 3}
	f.Add(AppendItem(nil, &it))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, n, err := DecodeItem(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeItem consumed %d of %d bytes", n, len(data))
		}
		if err := ValidateItem(&got); err != nil {
			t.Fatalf("DecodeItem accepted invalid item: %v", err)
		}
	})
}

// TestDecodeItemRejectsHostileFields pins the validation behaviour the
// fuzz corpus exercises: hostile lengths and inverted gaps are ErrMalformed.
func TestDecodeItemRejectsHostileFields(t *testing.T) {
	cases := []Item{
		{Packet: Packet{Kind: KTNT, NBits: MaxTNTBits + 1}},
		{Packet: Packet{Kind: KTNT, NBits: 255}},
		{Packet: Packet{Kind: Kind(0x7f)}},
		{Gap: true, GapStart: 100, GapEnd: 99},
	}
	for i, it := range cases {
		enc := AppendItem(nil, &it)
		if _, _, err := DecodeItem(enc); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: DecodeItem err = %v, want ErrMalformed", i, err)
		}
	}
	// A maximal but legal TNT packet must still pass.
	ok := Item{Packet: Packet{Kind: KTNT, NBits: MaxTNTBits, Bits: ^uint64(0) >> (64 - MaxTNTBits)}}
	if _, _, err := DecodeItem(AppendItem(nil, &ok)); err != nil {
		t.Errorf("legal TNT rejected: %v", err)
	}
}
