package pt

import (
	"errors"
	"testing"

	"jportal/internal/source"
)

// FuzzDecodeItem checks the single-record decoder never panics and never
// accepts an item that fails validation — the bounds contract a hostile
// length field must not get past.
func FuzzDecodeItem(f *testing.F) {
	var it source.Item
	f.Add(source.AppendItem(nil, &source.Item{Packet: source.Packet{Kind: KTSC, TSC: 42, WireLen: 8}}))
	it = source.Item{Packet: source.Packet{Kind: KTNT, NBits: 255, Bits: ^uint64(0)}}
	f.Add(source.AppendItem(nil, &it))
	it = source.Item{Packet: source.Packet{Kind: Kind(0xff)}}
	f.Add(source.AppendItem(nil, &it))
	it = source.GapItem(0, 7, 3)
	f.Add(source.AppendItem(nil, &it))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, n, err := source.DecodeItem(data, traits)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeItem consumed %d of %d bytes", n, len(data))
		}
		if err := traits.ValidateItem(&got); err != nil {
			t.Fatalf("DecodeItem accepted invalid item: %v", err)
		}
	})
}

// TestDecodeItemRejectsHostileFields pins the validation behaviour the
// fuzz corpus exercises: hostile lengths and inverted gaps are source.ErrMalformed.
func TestDecodeItemRejectsHostileFields(t *testing.T) {
	cases := []source.Item{
		{Packet: source.Packet{Kind: KTNT, NBits: MaxTNTBits + 1}},
		{Packet: source.Packet{Kind: KTNT, NBits: 255}},
		{Packet: source.Packet{Kind: Kind(0x7f)}},
		source.GapItem(0, 100, 99),
	}
	for i, it := range cases {
		enc := source.AppendItem(nil, &it)
		if _, _, err := source.DecodeItem(enc, traits); !errors.Is(err, source.ErrMalformed) {
			t.Errorf("case %d: DecodeItem err = %v, want ErrMalformed", i, err)
		}
	}
	// A maximal but legal TNT packet must still pass.
	ok := source.Item{Packet: source.Packet{Kind: KTNT, NBits: MaxTNTBits, Bits: ^uint64(0) >> (64 - MaxTNTBits)}}
	if _, _, err := source.DecodeItem(source.AppendItem(nil, &ok), traits); err != nil {
		t.Errorf("legal TNT rejected: %v", err)
	}
}
