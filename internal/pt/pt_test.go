package pt

import (
	"testing"
	"testing/quick"

	"jportal/internal/etrace"
	"jportal/internal/source"
)

// backends are the registered sources the collector tests run over, each
// with the resync preamble it emits after a loss: PSB+TSC for PT, one
// SYNC (which carries the timestamp) for E-Trace.
var backends = []struct {
	tr       *source.Traits
	preamble []source.Kind
}{
	{traits, []source.Kind{KPSB, KTSC}},
	{etrace.Traits(), []source.Kind{etrace.KSync}},
}

// collectPackets drives a fresh one-core PT collector through fn and
// returns every exported packet.
func collectPackets(t *testing.T, cfg source.CollectorConfig, fn func(c *source.Collector)) []source.Packet {
	t.Helper()
	c := traits.NewCollector(cfg, 1)
	fn(c)
	var out []source.Packet
	for _, it := range c.Finish(0)[0].Items {
		if it.IsGap() {
			t.Fatalf("unexpected gap %+v", it)
		}
		out = append(out, it.Packet)
	}
	return out
}

func TestTNTPacking(t *testing.T) {
	// 5 bits: short TNT.
	ps := collectPackets(t, source.DefaultCollectorConfig(), func(c *source.Collector) {
		for i := 0; i < 5; i++ {
			c.TNT(0, 0x1000, i%2 == 0, 0)
		}
	})
	if len(ps) != 1 {
		t.Fatalf("got %d packets, want one short TNT: %+v", len(ps), ps)
	}
	p := ps[0]
	if p.Kind != KTNT || p.NBits != 5 || p.WireLen != 2 {
		t.Fatalf("short TNT: %+v", p)
	}
	for i := 0; i < 5; i++ {
		if p.TNTBit(i) != (i%2 == 0) {
			t.Errorf("bit %d = %v", i, p.TNTBit(i))
		}
	}
}

func TestTNTLongPacketAutoFlush(t *testing.T) {
	// Exactly two full packets' worth of bits: the encoder must flush at
	// each 47th bit and leave nothing for Finish.
	ps := collectPackets(t, source.DefaultCollectorConfig(), func(c *source.Collector) {
		for i := 0; i < 2*MaxTNTBits; i++ {
			c.TNT(0, 0x1000, true, 0)
		}
	})
	if len(ps) != 2 {
		t.Fatalf("got %d packets, want two long TNTs: %+v", len(ps), ps)
	}
	for _, p := range ps {
		if p.Kind != KTNT || p.NBits != MaxTNTBits || p.WireLen != 8 {
			t.Errorf("long TNT: %+v", p)
		}
	}
}

func TestIPCompression(t *testing.T) {
	// A PSB falls due once the first four TIPs' 24 bytes are out; it
	// must reset compression.
	cfg := source.DefaultCollectorConfig()
	cfg.PSBPeriodBytes = 9 + 3 + 5 + 7
	ps := collectPackets(t, cfg, func(c *source.Collector) {
		c.TIP(0, 0x7f40_0000_1000, 0) // first IP: full width
		c.TIP(0, 0x7f40_0000_1040, 0) // same upper 6 bytes
		c.TIP(0, 0x7f40_0100_0000, 0) // upper 4 bytes match
		c.TIP(0, 0x0000_0000_2000, 0) // only the top two bytes match
		c.TIP(0, 0x0000_0000_2000, 0) // after the PSB: full width again
	})
	wantKinds := []Kind{KTIP, KTIP, KTIP, KTIP, KPSB, KTIP}
	wantLens := []uint8{9, 3, 5, 7, 16, 9}
	if len(ps) != len(wantKinds) {
		t.Fatalf("got %d packets, want %d: %+v", len(ps), len(wantKinds), ps)
	}
	for i, p := range ps {
		if p.Kind != wantKinds[i] || p.WireLen != wantLens[i] {
			t.Errorf("packet %d: %s len %d, want %s len %d", i,
				traits.KindString(p.Kind), p.WireLen, traits.KindString(wantKinds[i]), wantLens[i])
		}
	}
}

func TestTNTBitsQuickRoundTrip(t *testing.T) {
	// Property: bits fed to the collector come back in order.
	f := func(bits []bool) bool {
		if len(bits) > MaxTNTBits-1 {
			bits = bits[:MaxTNTBits-1]
		}
		ps := collectPackets(t, source.DefaultCollectorConfig(), func(c *source.Collector) {
			for _, b := range bits {
				c.TNT(0, 0x1000, b, 0)
			}
		})
		if len(bits) == 0 {
			return len(ps) == 0
		}
		if len(ps) != 1 || ps[0].Kind != KTNT || int(ps[0].NBits) != len(bits) {
			return false
		}
		for i, b := range bits {
			if ps[0].TNTBit(i) != b {
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
	for _, b := range backends {
		t.Run(b.tr.Name, func(t *testing.T) {
			cfg := source.DefaultCollectorConfig()
			cfg.BufBytes = 1 << 20
			c := b.tr.NewCollector(cfg, 1)
			c.PGE(0, 0x1000, 0)
			for i := 0; i < 1000; i++ {
				tsc := uint64(i * 10)
				c.TIP(0, 0x7f40_0000_0000+uint64(i)*64, tsc)
				c.TNT(0, 0x7f40_0000_0040, i%3 == 0, tsc+1)
			}
			c.PGD(0, 0x1000, 10010)
			tr := c.Finish(10020)[0]
			if tr.LostBytes() != 0 {
				t.Fatalf("lost %d bytes in a huge buffer", tr.LostBytes())
			}
			var tips, bits int
			for _, it := range tr.Items {
				if it.IsGap() {
					t.Fatal("unexpected gap")
				}
				switch {
				case it.Packet.Kind == b.tr.Roles.Target:
					tips++
				case b.tr.IsTNT(it.Packet.Kind):
					bits += int(it.Packet.NBits)
				}
			}
			if tips != 1000 || bits != 1000 {
				t.Errorf("tips=%d bits=%d, want 1000 each", tips, bits)
			}
			if tr.Bytes() != c.GeneratedBytes() {
				t.Errorf("exported %d != generated %d without loss", tr.Bytes(), c.GeneratedBytes())
			}
		})
	}
}

func TestCollectorOverflowCreatesGap(t *testing.T) {
	for _, b := range backends {
		t.Run(b.tr.Name, func(t *testing.T) {
			cfg := source.DefaultCollectorConfig()
			cfg.BufBytes = 256 // tiny
			cfg.DrainBytesPerKCycle = 1
			c := b.tr.NewCollector(cfg, 1)
			c.PGE(0, 0x1000, 0)
			for i := 0; i < 2000; i++ {
				// Far-apart IPs defeat compression: ~9 bytes per packet.
				c.TIP(0, uint64(i)<<33, uint64(i)*3)
			}
			tr := c.Finish(6000)[0]
			if tr.LostBytes() == 0 {
				t.Fatal("expected loss with a 256-byte buffer")
			}
			gaps := 0
			var prevEnd uint64
			for _, it := range tr.Items {
				if !it.IsGap() {
					continue
				}
				gaps++
				if it.GapEnd() <= it.GapStart() {
					t.Errorf("gap has non-positive span: %+v", it)
				}
				if it.GapStart() < prevEnd {
					t.Errorf("gap overlaps previous: start %d < prev end %d", it.GapStart(), prevEnd)
				}
				prevEnd = it.GapEnd()
			}
			if gaps == 0 {
				t.Fatal("loss without gap markers")
			}
			if tr.Bytes()+tr.LostBytes() != c.GeneratedBytes() {
				t.Errorf("accounting: exported %d + lost %d != generated %d",
					tr.Bytes(), tr.LostBytes(), c.GeneratedBytes())
			}
		})
	}
}

func TestCollectorStreamInGenerationOrder(t *testing.T) {
	for _, b := range backends {
		t.Run(b.tr.Name, func(t *testing.T) {
			cfg := source.DefaultCollectorConfig()
			cfg.BufBytes = 512
			cfg.DrainBytesPerKCycle = 20
			c := b.tr.NewCollector(cfg, 1)
			c.PGE(0, 0x1000, 0)
			for i := 0; i < 3000; i++ {
				c.TIP(0, uint64(i)<<33, uint64(i)*5)
			}
			tr := c.Finish(20000)[0]
			// Timestamps along the stream (time-bearing packets and gap
			// bounds) must be non-decreasing: gaps travel the FIFO with
			// the packets.
			var last uint64
			for _, it := range tr.Items {
				var ts uint64
				switch {
				case it.IsGap():
					ts = it.GapStart()
				case b.tr.IsTime(it.Packet.Kind):
					ts = it.Packet.TSC
				default:
					continue
				}
				if ts < last {
					t.Fatalf("stream out of order: %d after %d", ts, last)
				}
				if it.IsGap() {
					last = it.GapEnd()
				} else {
					last = ts
				}
			}
		})
	}
}

func TestCollectorResyncAfterGap(t *testing.T) {
	for _, b := range backends {
		t.Run(b.tr.Name, func(t *testing.T) {
			cfg := source.DefaultCollectorConfig()
			cfg.BufBytes = 300
			cfg.DrainBytesPerKCycle = 5
			c := b.tr.NewCollector(cfg, 1)
			c.PGE(0, 0x1000, 0)
			for i := 0; i < 500; i++ {
				c.TIP(0, uint64(i)<<33, uint64(i)*4)
			}
			// Let the buffer drain, then send more: the episode must
			// close and the source's resync preamble must precede the
			// next packet.
			c.Advance(0, 1_000_000)
			c.TIP(0, 0xdead<<33, 1_000_001)
			tr := c.Finish(2_000_000)[0]
			gap := -1
			for i, it := range tr.Items {
				if it.IsGap() {
					gap = i
					break
				}
			}
			if gap < 0 {
				t.Fatal("no gap recorded")
			}
			var after []source.Packet
			for _, it := range tr.Items[gap+1:] {
				if !it.IsGap() {
					after = append(after, it.Packet)
				}
			}
			if len(after) <= len(b.preamble) {
				t.Fatalf("%d packets after the gap, want the preamble and more", len(after))
			}
			for i, k := range b.preamble {
				p := after[i]
				if p.Kind != k {
					t.Fatalf("packet %d after gap is %s, want %s", i, b.tr.KindString(p.Kind), b.tr.KindString(k))
				}
				if b.tr.IsTime(k) && p.TSC < tr.Items[gap].GapEnd() {
					t.Errorf("preamble time %d before the gap's end %d", p.TSC, tr.Items[gap].GapEnd())
				}
			}
			// Compression was reset: the first address after the gap is
			// sent in full.
			for _, p := range after {
				if p.IP != 0 {
					if p.WireLen != 9 {
						t.Errorf("first address after the gap takes %d bytes, want 9", p.WireLen)
					}
					break
				}
			}
		})
	}
}

func TestWireRoundTrip(t *testing.T) {
	cfg := source.DefaultCollectorConfig()
	cfg.BufBytes = 400
	cfg.DrainBytesPerKCycle = 3
	c := traits.NewCollector(cfg, 1)
	c.PGE(0, 0x7f40_0000_0000, 0)
	for i := 0; i < 300; i++ {
		c.TIP(0, uint64(i+1)<<33, uint64(i)*7)
		c.TNT(0, 0x7f40_0000_0040, i%2 == 0, uint64(i)*7+1)
	}
	tr := c.Finish(10000)[0]

	var rec []byte
	for i := range tr.Items {
		rec = source.AppendItem(rec, &tr.Items[i])
	}
	for i := range tr.Items {
		got, n, err := source.DecodeItem(rec, traits)
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
	if _, _, err := source.DecodeItem([]byte("not a trace at all........"), traits); err == nil {
		t.Fatal("garbage accepted")
	}
}
