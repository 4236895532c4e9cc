package pt

import (
	"testing"
	"testing/quick"
)

func TestTNTPacking(t *testing.T) {
	var e encoder
	// 5 bits: short TNT.
	for i := 0; i < 5; i++ {
		if p, full := e.tnt(i%2 == 0); full {
			t.Fatalf("premature flush at bit %d: %v", i, p)
		}
	}
	p, ok := e.flushTNT()
	if !ok || p.NBits != 5 || p.WireLen != 2 {
		t.Fatalf("short TNT: %+v", p)
	}
	for i := 0; i < 5; i++ {
		if p.TNTBit(i) != (i%2 == 0) {
			t.Errorf("bit %d = %v", i, p.TNTBit(i))
		}
	}
}

func TestTNTLongPacketAutoFlush(t *testing.T) {
	var e encoder
	var flushed *Packet
	for i := 0; i < MaxTNTBits; i++ {
		if p, full := e.tnt(true); full {
			flushed = &p
			if i != MaxTNTBits-1 {
				t.Fatalf("flush at bit %d", i)
			}
		}
	}
	if flushed == nil {
		t.Fatal("long TNT never flushed")
	}
	if flushed.NBits != MaxTNTBits || flushed.WireLen != 8 {
		t.Errorf("long TNT: %+v", flushed)
	}
	if _, ok := e.flushTNT(); ok {
		t.Error("encoder should be empty after auto flush")
	}
}

func TestIPCompression(t *testing.T) {
	var e encoder
	p1 := e.ip(KTIP, 0x7f40_0000_1000)
	if p1.WireLen != 9 {
		t.Errorf("first IP should be full width, got %d", p1.WireLen)
	}
	p2 := e.ip(KTIP, 0x7f40_0000_1040) // same upper 6 bytes
	if p2.WireLen != 3 {
		t.Errorf("near IP should compress to 3 bytes, got %d", p2.WireLen)
	}
	p3 := e.ip(KTIP, 0x7f40_0100_0000) // upper 4 bytes match
	if p3.WireLen != 5 {
		t.Errorf("mid-range IP should compress to 5, got %d", p3.WireLen)
	}
	p4 := e.ip(KTIP, 0x0000_0000_2000) // only the top two bytes match
	if p4.WireLen != 7 {
		t.Errorf("far IP should take a 6-byte suffix, got %d", p4.WireLen)
	}
	e.psb()
	p5 := e.ip(KTIP, 0x0000_0000_2000)
	if p5.WireLen != 9 {
		t.Errorf("after PSB compression must reset, got %d", p5.WireLen)
	}
}

func TestTNTBitsQuickRoundTrip(t *testing.T) {
	// Property: bits fed to the encoder come back in order.
	f := func(bits []bool) bool {
		if len(bits) > MaxTNTBits-1 {
			bits = bits[:MaxTNTBits-1]
		}
		var e encoder
		for _, b := range bits {
			if _, full := e.tnt(b); full {
				return false
			}
		}
		p, ok := e.flushTNT()
		if len(bits) == 0 {
			return !ok
		}
		if !ok || int(p.NBits) != len(bits) {
			return false
		}
		for i, b := range bits {
			if p.TNTBit(i) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCollectorLosslessExportsEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufBytes = 1 << 20
	c := NewCollector(cfg, 1)
	c.PGE(0, 0x1000, 0)
	for i := 0; i < 1000; i++ {
		tsc := uint64(i * 10)
		c.TIP(0, 0x7f40_0000_0000+uint64(i)*64, tsc)
		c.TNT(0, 0x7f40_0000_0040, i%3 == 0, tsc+1)
	}
	c.PGD(0, 0x1000, 10010)
	traces := c.Finish(10020)
	tr := traces[0]
	if tr.LostBytes() != 0 {
		t.Fatalf("lost %d bytes in a huge buffer", tr.LostBytes())
	}
	var tips, bits int
	for _, it := range tr.Items {
		if it.Gap {
			t.Fatal("unexpected gap")
		}
		switch it.Packet.Kind {
		case KTIP:
			tips++
		case KTNT:
			bits += int(it.Packet.NBits)
		}
	}
	if tips != 1000 || bits != 1000 {
		t.Errorf("tips=%d bits=%d, want 1000 each", tips, bits)
	}
	if tr.Bytes() != c.GenBytes {
		t.Errorf("exported %d != generated %d without loss", tr.Bytes(), c.GenBytes)
	}
}

func TestCollectorOverflowCreatesGap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufBytes = 256 // tiny
	cfg.DrainBytesPerKCycle = 1
	c := NewCollector(cfg, 1)
	c.PGE(0, 0x1000, 0)
	for i := 0; i < 2000; i++ {
		// Far-apart IPs defeat compression: ~9 bytes per packet.
		c.TIP(0, uint64(i)<<33, uint64(i)*3)
	}
	traces := c.Finish(6000)
	tr := traces[0]
	if tr.LostBytes() == 0 {
		t.Fatal("expected loss with a 256-byte buffer")
	}
	gaps := 0
	var prevEnd uint64
	for _, it := range tr.Items {
		if !it.Gap {
			continue
		}
		gaps++
		if it.GapEnd <= it.GapStart {
			t.Errorf("gap has non-positive span: %+v", it)
		}
		if it.GapStart < prevEnd {
			t.Errorf("gap overlaps previous: start %d < prev end %d", it.GapStart, prevEnd)
		}
		prevEnd = it.GapEnd
	}
	if gaps == 0 {
		t.Fatal("loss without gap markers")
	}
	if tr.Bytes()+tr.LostBytes() != c.GenBytes {
		t.Errorf("accounting: exported %d + lost %d != generated %d",
			tr.Bytes(), tr.LostBytes(), c.GenBytes)
	}
}

func TestCollectorStreamInGenerationOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufBytes = 512
	cfg.DrainBytesPerKCycle = 20
	c := NewCollector(cfg, 1)
	c.PGE(0, 0x1000, 0)
	for i := 0; i < 3000; i++ {
		c.TIP(0, uint64(i)<<33, uint64(i)*5)
	}
	tr := c.Finish(20000)[0]
	// Timestamps along the stream (TSC packets and gap bounds) must be
	// non-decreasing: gaps travel the FIFO with the packets.
	var last uint64
	for _, it := range tr.Items {
		var ts uint64
		switch {
		case it.Gap:
			ts = it.GapStart
		case it.Packet.Kind == KTSC:
			ts = it.Packet.TSC
		default:
			continue
		}
		if ts < last {
			t.Fatalf("stream out of order: %d after %d", ts, last)
		}
		if it.Gap {
			last = it.GapEnd
		} else {
			last = ts
		}
	}
}

func TestCollectorResyncAfterGap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufBytes = 300
	cfg.DrainBytesPerKCycle = 5
	c := NewCollector(cfg, 1)
	c.PGE(0, 0x1000, 0)
	for i := 0; i < 500; i++ {
		c.TIP(0, uint64(i)<<33, uint64(i)*4)
	}
	// Let the buffer drain, then send more: the episode must close and a
	// PSB+TSC preamble must precede the next packet.
	c.Advance(0, 1_000_000)
	c.TIP(0, 0xdead<<33, 1_000_001)
	tr := c.Finish(2_000_000)[0]
	sawGap := false
	for i, it := range tr.Items {
		if it.Gap {
			sawGap = true
			// Find the next packet after the gap: PSB expected.
			for j := i + 1; j < len(tr.Items); j++ {
				if tr.Items[j].Gap {
					continue
				}
				if tr.Items[j].Packet.Kind != KPSB {
					t.Errorf("packet after gap is %v, want PSB", tr.Items[j].Packet.Kind)
				}
				break
			}
			break
		}
	}
	if !sawGap {
		t.Fatal("no gap recorded")
	}
}

func TestWireRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufBytes = 400
	cfg.DrainBytesPerKCycle = 3
	c := NewCollector(cfg, 1)
	c.PGE(0, 0x7f40_0000_0000, 0)
	for i := 0; i < 300; i++ {
		c.TIP(0, uint64(i+1)<<33, uint64(i)*7)
		c.TNT(0, 0x7f40_0000_0040, i%2 == 0, uint64(i)*7+1)
	}
	tr := c.Finish(10000)[0]

	var rec []byte
	for i := range tr.Items {
		rec = AppendItem(rec, &tr.Items[i])
	}
	for i := range tr.Items {
		got, n, err := DecodeItem(rec)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if got != tr.Items[i] {
			t.Fatalf("item %d differs: %+v vs %+v", i, tr.Items[i], got)
		}
		rec = rec[n:]
	}
	if len(rec) != 0 {
		t.Fatalf("%d bytes left after %d items", len(rec), len(tr.Items))
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeItem([]byte("not a trace at all........")); err == nil {
		t.Fatal("garbage accepted")
	}
}
