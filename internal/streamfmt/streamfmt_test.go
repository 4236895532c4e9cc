package streamfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"jportal/internal/isa"
	"jportal/internal/meta"
	"jportal/internal/pt"
	"jportal/internal/source"
	"jportal/internal/vm"
)

// encodeSample builds a small but complete 2-core stream exercising every
// record kind, returning the full byte stream (header included) and the
// checksum the encoder sealed it with.
func encodeSample(t *testing.T) ([]byte, uint32) {
	t.Helper()
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	snap := meta.NewSnapshot(meta.NewTemplateTable())
	if err := e.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	e.AddSideband([]vm.SwitchRecord{{TSC: 100, Core: 0, Thread: 3}, {TSC: 200, Core: 1, Thread: -1}})
	items := []source.Item{
		{Packet: source.Packet{Kind: 1, IP: 0x4000, NBits: 3, Bits: 5, WireLen: 8}},
		source.GapItem(64, 10, 20),
	}
	if err := e.Feed(0, items); err != nil {
		t.Fatal(err)
	}
	e.Watermark(1, 500)
	if err := e.AddBlobs([]*meta.CompiledMethod{sampleBlob()}); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), e.CRC()
}

// sampleBlob is a minimal valid compiled method: two instructions, one
// debug record each.
func sampleBlob() *meta.CompiledMethod {
	a := isa.NewAssembler("m", 0x1000)
	a.Emit(isa.Linear, 4, 0, "")
	a.Emit(isa.Ret, 1, 0, "")
	return &meta.CompiledMethod{Root: 0, Tier: 1, Code: a.Finish(), Debug: []meta.DebugRecord{
		{Addr: 0x1000, Frames: []meta.Frame{{Method: 0, PC: 0}}},
		{Addr: 0x1004, Frames: []meta.Frame{{Method: 0, PC: 1}}},
	}}
}

func TestRoundTrip(t *testing.T) {
	stream, _ := encodeSample(t)
	ncores, err := ParseHeader(stream)
	if err != nil {
		t.Fatal(err)
	}
	if ncores != 2 {
		t.Fatalf("ncores = %d, want 2", ncores)
	}
	var kinds []Kind
	var recs []Record
	rest := stream[HeaderLen:]
	for len(rest) > 0 {
		rec, n, err := Decode(rest, pt.Traits())
		if err != nil {
			t.Fatalf("decode at offset %d: %v", len(stream)-len(rest), err)
		}
		kinds = append(kinds, rec.Kind)
		recs = append(recs, rec)
		rest = rest[n:]
	}
	want := []Kind{KindSnapshot, KindSideband, KindSideband, KindChunk, KindWatermark, KindBlob, KindSeal}
	if len(kinds) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("record %d: kind %d, want %d", i, kinds[i], want[i])
		}
	}
	if r := recs[1]; r.Rec.TSC != 100 || r.Rec.Core != 0 || r.Rec.Thread != 3 {
		t.Errorf("sideband 1 = %+v", r.Rec)
	}
	if r := recs[2]; r.Rec.Thread != -1 {
		t.Errorf("sideband 2 thread = %d, want -1 (negative survives)", r.Rec.Thread)
	}
	if r := recs[3]; r.Core != 0 || len(r.Items) != 2 {
		t.Fatalf("chunk = core %d, %d items", r.Core, len(r.Items))
	} else {
		if r.Items[0].Packet.IP != 0x4000 || r.Items[0].Packet.NBits != 3 {
			t.Errorf("chunk item 0 = %+v", r.Items[0])
		}
		if !r.Items[1].IsGap() || r.Items[1].LostBytes() != 64 {
			t.Errorf("chunk item 1 = %+v", r.Items[1])
		}
	}
	if r := recs[4]; r.Core != 1 || r.Mark != 500 {
		t.Errorf("watermark = core %d mark %d", r.Core, r.Mark)
	}
	// The seal carries the CRC of everything before it.
	wantCRC := crc32.ChecksumIEEE(stream[:len(stream)-5])
	if r := recs[5]; r.Blob == nil || len(r.Blob.Debug) != 2 {
		t.Errorf("blob = %+v", r.Blob)
	}
	if recs[6].CRC != wantCRC {
		t.Errorf("seal CRC %#08x, want %#08x", recs[6].CRC, wantCRC)
	}
}

func TestRawEncoderMatchesEncoder(t *testing.T) {
	full, _ := encodeSample(t)

	var raw bytes.Buffer
	e := NewRawEncoder(&raw, 2)
	snap := meta.NewSnapshot(meta.NewTemplateTable())
	if err := e.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	e.AddSideband([]vm.SwitchRecord{{TSC: 100, Core: 0, Thread: 3}, {TSC: 200, Core: 1, Thread: -1}})
	e.Feed(0, []source.Item{
		{Packet: source.Packet{Kind: 1, IP: 0x4000, NBits: 3, Bits: 5, WireLen: 8}},
		source.GapItem(64, 10, 20),
	})
	e.Watermark(1, 500)
	e.AddBlobs([]*meta.CompiledMethod{sampleBlob()})
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	// Raw stream + independently written header == full stream: the raw
	// encoder seeds its checksum with the header it never writes.
	got := append(AppendHeader(nil, 2), raw.Bytes()...)
	if !bytes.Equal(got, full) {
		t.Fatalf("raw encoder + header diverges from full encoder (%d vs %d bytes)", len(got), len(full))
	}
}

func TestWatermarkSuppression(t *testing.T) {
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	pre := buf.Len()
	e.Watermark(0, 10)
	one := buf.Len()
	if one == pre {
		t.Fatal("first watermark not written")
	}
	e.Watermark(0, 10) // same mark: no-op
	e.Watermark(0, 5)  // regression: no-op
	e.Watermark(-1, 9) // out-of-range core: no-op
	e.Watermark(2, 9)  // out-of-range core: no-op
	if buf.Len() != one {
		t.Fatalf("no-op watermarks wrote %d bytes", buf.Len()-one)
	}
	e.Watermark(0, 11)
	if buf.Len() == one {
		t.Fatal("advancing watermark suppressed")
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordAfterSeal(t *testing.T) {
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := e.Err(); err != nil {
		t.Fatalf("Err() after successful seal = %v", err)
	}
	crc := e.CRC()
	if got, ok := SealCRC(buf.Bytes()[HeaderLen:]); !ok || got != crc {
		t.Fatalf("CRC() = %#08x, seal carries %#08x (ok=%v)", crc, got, ok)
	}
	if err := e.Feed(0, nil); err == nil {
		t.Fatal("record after seal accepted")
	}
	if e.Err() == nil {
		t.Fatal("Err() nil after record-after-seal")
	}
}

func TestParseHeaderErrors(t *testing.T) {
	if _, err := ParseHeader([]byte("JPSTR")); !errors.Is(err, ErrShort) {
		t.Errorf("short header: %v, want ErrShort", err)
	}
	bad := AppendHeader(nil, 2)
	bad[0] = 'X'
	if _, err := ParseHeader(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: %v, want ErrCorrupt", err)
	}
	zero := AppendHeader(nil, 0)
	if _, err := ParseHeader(zero); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero cores: %v, want ErrCorrupt", err)
	}
	huge := AppendHeader(nil, MaxCores+1)
	if _, err := ParseHeader(huge); !errors.Is(err, ErrCorrupt) {
		t.Errorf("excess cores: %v, want ErrCorrupt", err)
	}
}

// TestScanTruncation slices every record of a valid stream at every length
// short of its true one: all must report ErrShort, never ErrCorrupt, never
// a wrong length — and a Cursor stepping the cut must stay where it was.
func TestScanTruncation(t *testing.T) {
	stream, _ := encodeSample(t)
	cur := NewCursor(2)
	rest := stream[HeaderLen:]
	for len(rest) > 0 {
		n, err := Scan(rest)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < n; cut++ {
			if _, err := Scan(rest[:cut]); !errors.Is(err, ErrShort) {
				t.Fatalf("Scan of %d/%d bytes of tag %#x: %v, want ErrShort", cut, n, rest[0], err)
			}
			if _, _, err := Decode(rest[:cut], pt.Traits()); !errors.Is(err, ErrShort) {
				t.Fatalf("Decode of %d/%d bytes of tag %#x: %v, want ErrShort", cut, n, rest[0], err)
			}
			c := cur
			if _, err := c.Step(rest[:cut]); !errors.Is(err, ErrShort) || c != cur {
				t.Fatalf("Step of %d/%d bytes of tag %#x: %v, cursor %+v -> %+v", cut, n, rest[0], err, cur, c)
			}
		}
		if _, err := cur.Step(rest); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
}

func TestScanCorruption(t *testing.T) {
	// Unknown tag.
	if _, err := Scan([]byte{0xEE, 0, 0, 0}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown tag: %v, want ErrCorrupt", err)
	}
	// Oversized declared length must be rejected before any allocation.
	huge := []byte{TagBlob, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(huge[1:5], MaxPayloadLen+1)
	if _, err := Scan(huge); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized blob: %v, want ErrCorrupt", err)
	}
	hugeChunk := []byte{TagChunk, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hugeChunk[5:9], MaxPayloadLen+1)
	if _, err := Scan(hugeChunk); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized chunk: %v, want ErrCorrupt", err)
	}
	// A snapshot whose payload is garbage scans fine but fails Decode with
	// a typed error (never a panic).
	junk := []byte{TagSnapshot, 4, 0, 0, 0, 1, 2, 3, 4}
	if _, err := Scan(junk); err != nil {
		t.Errorf("junk-payload snapshot should scan: %v", err)
	}
	if _, _, err := Decode(junk, pt.Traits()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("junk-payload snapshot decode: %v, want ErrCorrupt", err)
	}
	// Same for a chunk whose payload is not whole pt items.
	badItems := []byte{TagChunk, 0, 0, 0, 0, 2, 0, 0, 0, 0xFF, 0xFF}
	if _, _, err := Decode(badItems, pt.Traits()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad chunk items: %v, want ErrCorrupt", err)
	}
}

func TestSealCRCHelper(t *testing.T) {
	stream, _ := encodeSample(t)
	seal := stream[len(stream)-5:]
	if _, ok := SealCRC(seal); !ok {
		t.Fatal("SealCRC rejected a real seal record")
	}
	if _, ok := SealCRC(seal[:4]); ok {
		t.Fatal("SealCRC accepted a truncated seal")
	}
	if _, ok := SealCRC(stream[HeaderLen : HeaderLen+5]); ok {
		t.Fatal("SealCRC accepted a non-seal record")
	}
}

// TestCursorWalk steps a Cursor over the sample stream: each record steps
// exactly its Scan length, only the seal sets Sealed (without being folded
// into the CRC), and the verified checksum is the one the encoder sealed.
func TestCursorWalk(t *testing.T) {
	stream, sealCRC := encodeSample(t)
	steps := []struct {
		tag    byte
		sealed bool
	}{
		{TagSnapshot, false},
		{TagSideband, false},
		{TagSideband, false},
		{TagChunk, false},
		{TagWatermark, false},
		{TagBlob, false},
		{TagSeal, true},
	}
	cur := NewCursor(2)
	if want := crc32.ChecksumIEEE(stream[:HeaderLen]); cur.CRC != want {
		t.Fatalf("NewCursor CRC %#08x, want the header's %#08x", cur.CRC, want)
	}
	off := HeaderLen
	for i, want := range steps {
		rec := stream[off:]
		scanned, _ := Scan(rec)
		n, err := cur.Step(rec)
		if rec[0] != want.tag || err != nil || n != scanned || cur.Sealed != want.sealed {
			t.Fatalf("step %d: tag %#x n=%d err=%v sealed=%v; want tag %#x n=%d sealed=%v",
				i, rec[0], n, err, cur.Sealed, want.tag, scanned, want.sealed)
		}
		off += n
	}
	if off != len(stream) || cur.CRC != sealCRC {
		t.Fatalf("walk ended at byte %d of %d with CRC %#08x; the encoder sealed %#08x", off, len(stream), cur.CRC, sealCRC)
	}
	if _, err := cur.Step(stream[HeaderLen:]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record after the seal: %v, want ErrCorrupt", err)
	}
	if got, err := Walk(stream); err != nil || got != cur {
		t.Fatalf("Walk = %+v, %v; want %+v", got, err, cur)
	}
	// A walk resumed from a frontier's CRC and Sealed ends the same way.
	mid, _ := Walk(stream[:len(stream)-5])
	resumed := Cursor{CRC: mid.CRC, Sealed: mid.Sealed}
	if _, err := resumed.Step(stream[len(stream)-5:]); err != nil || resumed != cur {
		t.Fatalf("resumed cursor = %+v, %v; want %+v", resumed, err, cur)
	}
}

// TestCursorRejectsEveryByteFlip flips every byte past the header of a
// sealed stream, one at a time: the walk must end in ErrCorrupt or without
// a seal, and never verify a seal over the damaged bytes.
func TestCursorRejectsEveryByteFlip(t *testing.T) {
	stream, _ := encodeSample(t)
	bad := make([]byte, len(stream))
	for i := HeaderLen; i < len(stream); i++ {
		for _, mask := range []byte{0x01, 0xFF} {
			copy(bad, stream)
			bad[i] ^= mask
			cur, err := Walk(bad)
			if cur.Sealed {
				t.Fatalf("byte %d ^ %#x: seal verified over a damaged stream (err %v)", i, mask, err)
			}
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrShort) {
				t.Fatalf("byte %d ^ %#x: error %v is neither ErrCorrupt nor ErrShort", i, mask, err)
			}
		}
	}
}

// FuzzDecode drives Scan/Decode with arbitrary bytes: they must never
// panic, and their verdicts must be consistent (a scannable record either
// decodes or reports corruption; lengths agree). Input that parses as a
// header is also walked with a Cursor, whose steps must agree with Scan.
func FuzzDecode(f *testing.F) {
	sample := []byte(nil)
	func() {
		var buf bytes.Buffer
		e, _ := NewEncoder(&buf, 2)
		e.AddSideband([]vm.SwitchRecord{{TSC: 1, Core: 0, Thread: 1}})
		e.Feed(0, []source.Item{{Packet: source.Packet{Kind: 1, IP: 0x40}}})
		e.Watermark(0, 7)
		e.Seal()
		sample = buf.Bytes()
	}()
	f.Add(sample)
	f.Add(sample[HeaderLen:])
	f.Add([]byte{TagSideband})
	f.Add([]byte{TagSnapshot, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		if ncores, err := ParseHeader(data); err == nil {
			cur := NewCursor(ncores)
			for rest := data[HeaderLen:]; len(rest) > 0; {
				n, err := cur.Step(rest)
				if err != nil {
					break
				}
				if sn, _ := Scan(rest); n != sn {
					t.Fatalf("Step length %d != Scan length %d", n, sn)
				}
				rest = rest[n:]
			}
		}
		n, scanErr := Scan(data)
		rec, dn, decErr := Decode(data, pt.Traits())
		if scanErr != nil {
			if decErr == nil {
				t.Fatalf("Scan erred (%v) but Decode succeeded", scanErr)
			}
			if !errors.Is(scanErr, ErrShort) && !errors.Is(scanErr, ErrCorrupt) {
				t.Fatalf("Scan error %v is neither ErrShort nor ErrCorrupt", scanErr)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Scan length %d outside (0, %d]", n, len(data))
		}
		if decErr != nil {
			if !errors.Is(decErr, ErrCorrupt) {
				t.Fatalf("Decode of scannable record: error %v is not ErrCorrupt", decErr)
			}
			return
		}
		if dn != n {
			t.Fatalf("Scan length %d != Decode length %d", n, dn)
		}
		if rec.Kind < KindSnapshot || rec.Kind > KindSeal {
			t.Fatalf("decoded impossible kind %d", rec.Kind)
		}
	})
}
