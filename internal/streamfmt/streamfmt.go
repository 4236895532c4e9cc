// Package streamfmt defines the stream.jpt record format shared by the
// chunked run archive (jportal's StreamArchiveWriter/Reader) and the
// networked trace-ingest layer (internal/ingest): both frame the same
// tagged records, so a server can relay, validate and archive chunks
// byte-for-byte without understanding the run they came from.
//
// Layout: an 8-byte magic, a u32 core count, then tagged records (lengths
// and integers little-endian):
//
//	0x01 snapshot   u32 len, meta.WriteSnapshot bytes  (once, first record)
//	0x02 blob       u32 len, meta.WriteBlob bytes      (incremental metadata)
//	0x03 sideband   u64 TSC, i32 core, i32 thread      (one switch record)
//	0x04 chunk      u32 core, u32 len, source.AppendItem-framed trace items
//	0x05 watermark  u32 core, u64 mark
//	0x06 seal       u32 CRC-32 (IEEE) of header + every preceding record
//
// The seal CRC is the stream's end-to-end integrity check: a reader (or an
// ingest server relaying records off a socket) accumulates the checksum as
// bytes arrive and compares at the seal, so truncation-to-an-early-seal and
// payload corruption surface as ErrCorrupt instead of silently shortening
// the run. Cursor is the one place that rule is written down; every reader,
// relay, verifier and the Encoder step a Cursor over the records.
//
// Scan and Decode operate on byte slices and never panic on hostile input:
// every structural failure wraps ErrCorrupt, and a buffer that simply ends
// before the record does yields ErrShort (retry with more bytes).
package streamfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"jportal/internal/meta"
	"jportal/internal/source"
	"jportal/internal/vm"
)

// Magic opens every stream; version 3 added the CRC-carrying seal record.
var Magic = [8]byte{'J', 'P', 'S', 'T', 'R', 'M', '3', '\n'}

// Record tags.
const (
	TagSnapshot  byte = 0x01
	TagBlob      byte = 0x02
	TagSideband  byte = 0x03
	TagChunk     byte = 0x04
	TagWatermark byte = 0x05
	TagSeal      byte = 0x06
)

const (
	// HeaderLen is the fixed prefix: magic + u32 core count.
	HeaderLen = 12

	// MaxPayloadLen caps every length field. Legitimate snapshot, blob and
	// chunk payloads are far smaller; a corrupt length must become a typed
	// error, not a multi-gigabyte allocation.
	MaxPayloadLen = 1 << 28

	// MaxCores caps the header's core count for the same reason.
	MaxCores = 1 << 16
)

// ErrShort reports that the buffer ends before the record does: not
// corruption, just bytes that have not arrived (or been written) yet.
var ErrShort = fmt.Errorf("streamfmt: incomplete record")

// ErrCorrupt is wrapped by every structural decode failure — unknown tags,
// oversized lengths, bad magic, payloads that do not parse, and seal CRC
// mismatches. errors.Is(err, ErrCorrupt) distinguishes a damaged stream
// from one that is merely still being written (ErrShort).
var ErrCorrupt = fmt.Errorf("streamfmt: corrupt stream")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// AppendHeader appends the stream header for ncores cores.
func AppendHeader(dst []byte, ncores int) []byte {
	dst = append(dst, Magic[:]...)
	return binary.LittleEndian.AppendUint32(dst, uint32(ncores))
}

// ParseHeader validates the fixed prefix and returns the core count. A
// buffer shorter than HeaderLen yields ErrShort.
func ParseHeader(buf []byte) (ncores int, err error) {
	if len(buf) < HeaderLen {
		return 0, ErrShort
	}
	if [8]byte(buf[:8]) != Magic {
		return 0, corruptf("bad stream magic %q", buf[:8])
	}
	ncores = int(binary.LittleEndian.Uint32(buf[8:12]))
	if ncores <= 0 || ncores > MaxCores {
		return 0, corruptf("stream declares %d cores", ncores)
	}
	return ncores, nil
}

// Scan returns the length in bytes of the record at the front of buf
// without decoding its payload. It returns ErrShort when buf ends before
// the record does and an ErrCorrupt-wrapped error for unknown tags or
// implausible lengths. Cursor.Step builds on it.
func Scan(buf []byte) (n int, err error) {
	if len(buf) == 0 {
		return 0, ErrShort
	}
	switch buf[0] {
	case TagSnapshot, TagBlob:
		if len(buf) < 5 {
			return 0, ErrShort
		}
		pl := binary.LittleEndian.Uint32(buf[1:5])
		if pl > MaxPayloadLen {
			return 0, corruptf("record %#x declares %d payload bytes", buf[0], pl)
		}
		n = 5 + int(pl)
	case TagSideband:
		n = 17
	case TagChunk:
		if len(buf) < 9 {
			return 0, ErrShort
		}
		pl := binary.LittleEndian.Uint32(buf[5:9])
		if pl > MaxPayloadLen {
			return 0, corruptf("chunk record declares %d payload bytes", pl)
		}
		n = 9 + int(pl)
	case TagWatermark:
		n = 13
	case TagSeal:
		n = 5
	default:
		return 0, corruptf("unknown record tag %#x", buf[0])
	}
	if len(buf) < n {
		return 0, ErrShort
	}
	return n, nil
}

// Cursor walks a stream's records and enforces the seal rule: the seal
// carries the CRC-32 of the header and every record before it, and nothing
// follows the seal. The caller owns the bytes and the offsets (off += n), so
// a file read-ahead, a network frame and a whole-file image all step the
// same way. A resumed walk rebuilds its Cursor from the CRC and Sealed it
// stopped at.
type Cursor struct {
	// CRC is the running checksum of the header and every non-seal record
	// stepped over — at the seal, the value the seal carries.
	CRC uint32
	// Sealed reports that a seal with a matching checksum was stepped over.
	Sealed bool
}

// NewCursor returns the cursor state just past an ncores stream header.
func NewCursor(ncores int) Cursor {
	return Cursor{CRC: crc32.Update(0, crc32.IEEETable, AppendHeader(nil, ncores))}
}

// Step steps over the record at the front of buf and returns its length. A
// non-seal record is folded into CRC; a seal is verified against CRC and
// sets Sealed. ErrShort (buf ends mid-record) and every error leave the
// cursor unchanged. A record after the seal wraps ErrCorrupt, and a seal
// mismatch is a *SealError (which also wraps ErrCorrupt).
func (c *Cursor) Step(buf []byte) (n int, err error) {
	if c.Sealed {
		return 0, corruptf("records after the seal")
	}
	if n, err = Scan(buf); err != nil {
		return 0, err
	}
	if want, ok := SealCRC(buf[:n]); ok {
		if want != c.CRC {
			return 0, &SealError{Want: want, Got: c.CRC}
		}
		c.Sealed = true
		return n, nil
	}
	c.CRC = crc32.Update(c.CRC, crc32.IEEETable, buf[:n])
	return n, nil
}

// SealError reports a seal whose checksum (Want) does not match the stream
// before it (Got): the stream was damaged or truncated to an early seal.
type SealError struct{ Want, Got uint32 }

func (e *SealError) Error() string {
	return fmt.Sprintf("%v: seal CRC %#08x does not match stream contents (%#08x)", ErrCorrupt, e.Want, e.Got)
}

func (e *SealError) Unwrap() error { return ErrCorrupt }

// Walk steps a Cursor over a whole stream image, header included, and
// returns it as it stood at the end of the image or at the first error.
func Walk(stream []byte) (Cursor, error) {
	ncores, err := ParseHeader(stream)
	if err != nil {
		return Cursor{}, err
	}
	cur := NewCursor(ncores)
	for rest := stream[HeaderLen:]; len(rest) > 0; {
		n, err := cur.Step(rest)
		if err != nil {
			return cur, err
		}
		rest = rest[n:]
	}
	return cur, nil
}

// Kind discriminates Record.
type Kind int

// Record kinds, in tag order.
const (
	KindSnapshot Kind = iota
	KindBlob
	KindSideband
	KindChunk
	KindWatermark
	KindSeal
)

var kindNames = [...]string{"snapshot", "blob", "sideband", "chunk", "watermark", "seal"}

// String names the kind as error messages do ("chunk record ...").
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind %d", int(k))
	}
	return kindNames[k]
}

// Record is one decoded stream record.
type Record struct {
	Kind     Kind
	Snapshot *meta.Snapshot       // KindSnapshot
	Blob     *meta.CompiledMethod // KindBlob
	Rec      vm.SwitchRecord      // KindSideband
	Core     int                  // KindChunk, KindWatermark
	Items    []source.Item        // KindChunk
	Mark     uint64               // KindWatermark
	CRC      uint32               // KindSeal: checksum the writer recorded
}

// Decode decodes the record at the front of buf, returning it and the
// number of bytes consumed. Chunk items are validated against tr, the
// packet vocabulary of the trace source that wrote the stream. Errors are
// ErrShort (buffer ends early) or wrap ErrCorrupt; Decode never panics on
// arbitrary input.
func Decode(buf []byte, tr *source.Traits) (Record, int, error) {
	return DecodeInto(buf, nil, tr)
}

// DecodeInto is Decode with a reusable item buffer: a chunk record's Items
// are appended to items[:0], so a caller decoding many records (the archive
// replay loop) can reuse one backing array instead of allocating per
// record. The returned Record's Items alias that buffer — valid until the
// caller reuses it. A nil items behaves exactly like Decode.
func DecodeInto(buf []byte, items []source.Item, tr *source.Traits) (Record, int, error) {
	n, err := Scan(buf)
	if err != nil {
		return Record{}, 0, err
	}
	switch buf[0] {
	case TagSnapshot:
		snap, err := meta.ReadSnapshot(bytes.NewReader(buf[5:n]))
		if err != nil {
			return Record{}, 0, corruptf("snapshot record: %v", err)
		}
		return Record{Kind: KindSnapshot, Snapshot: snap}, n, nil
	case TagBlob:
		blob, err := meta.ReadBlob(bytes.NewReader(buf[5:n]))
		if err != nil {
			return Record{}, 0, corruptf("blob record: %v", err)
		}
		return Record{Kind: KindBlob, Blob: blob}, n, nil
	case TagSideband:
		return Record{Kind: KindSideband, Rec: vm.SwitchRecord{
			TSC:    binary.LittleEndian.Uint64(buf[1:9]),
			Core:   int(int32(binary.LittleEndian.Uint32(buf[9:13]))),
			Thread: int(int32(binary.LittleEndian.Uint32(buf[13:17]))),
		}}, n, nil
	case TagChunk:
		core := int(binary.LittleEndian.Uint32(buf[1:5]))
		payload := buf[9:n]
		items = items[:0]
		for len(payload) > 0 {
			it, used, err := source.DecodeItem(payload, tr)
			if err != nil {
				return Record{}, 0, corruptf("chunk record for core %d: %v", core, err)
			}
			items = append(items, it)
			payload = payload[used:]
		}
		return Record{Kind: KindChunk, Core: core, Items: items}, n, nil
	case TagWatermark:
		return Record{
			Kind: KindWatermark,
			Core: int(binary.LittleEndian.Uint32(buf[1:5])),
			Mark: binary.LittleEndian.Uint64(buf[5:13]),
		}, n, nil
	case TagSeal:
		return Record{Kind: KindSeal, CRC: binary.LittleEndian.Uint32(buf[1:5])}, n, nil
	}
	return Record{}, 0, corruptf("unknown record tag %#x", buf[0]) // unreachable: Scan rejected it
}

// SealCRC reports whether rec (a whole record as delimited by Scan) is a
// seal record, and if so the checksum it carries.
func SealCRC(rec []byte) (crc uint32, ok bool) {
	if len(rec) != 5 || rec[0] != TagSeal {
		return 0, false
	}
	return binary.LittleEndian.Uint32(rec[1:5]), true
}

// Encoder emits the stream format. Every record — and the header — is
// written with exactly one Write call on w, so an io.Writer that frames per
// call (the ingest client's live sink) sees record boundaries without
// re-scanning; a buffered file writer just concatenates them.
//
// The encoder steps a Cursor over everything it emits (so its seal carries
// the checksum every reader verifies) and suppresses watermark records that
// do not move a core's mark forward, so an archive written locally and a
// stream sent over the wire by the same run are byte-identical.
//
// Its record methods have the shapes of jportal's TraceSink and BlobSink
// (AddBlobs, AddSideband, Watermark, Feed), so the archive writer and the
// ingest client's live sink embed it and add only where the bytes go. The
// first error sticks: later records are dropped, and AddBlobs, Feed, Seal
// and Err report it.
type Encoder struct {
	w     io.Writer
	cur   Cursor
	marks []uint64
	tmp   []byte
	err   error
}

// NewEncoder writes the stream header to w and returns an encoder for
// ncores cores.
func NewEncoder(w io.Writer, ncores int) (*Encoder, error) {
	e, hdr := newEncoder(w, ncores)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return e, nil
}

// NewRawEncoder returns an encoder that emits records only: the header is
// folded into the checksum but never written. The ingest client uses it to
// stream records to a server that writes its own (identical) header from
// the handshake's core count.
func NewRawEncoder(w io.Writer, ncores int) *Encoder {
	e, _ := newEncoder(w, ncores)
	return e
}

func newEncoder(w io.Writer, ncores int) (*Encoder, []byte) {
	return &Encoder{
		w:     w,
		cur:   NewCursor(ncores),
		marks: make([]uint64, ncores),
	}, AppendHeader(nil, ncores)
}

// CRC returns the checksum accumulated so far (header plus every record
// emitted). After Seal it is the value the seal record carries.
func (e *Encoder) CRC() uint32 { return e.cur.CRC }

// emit steps the cursor over one whole record and writes it. The first
// error sticks.
func (e *Encoder) emit(rec []byte) error {
	if e.err != nil {
		return e.err
	}
	if _, e.err = e.cur.Step(rec); e.err != nil {
		return e.err
	}
	if _, err := e.w.Write(rec); err != nil {
		e.err = err
	}
	return e.err
}

// Snapshot emits the initial snapshot record.
func (e *Encoder) Snapshot(snap *meta.Snapshot) error {
	return e.emitMeta(TagSnapshot, func(w io.Writer) error { return meta.WriteSnapshot(w, snap) })
}

// AddBlobs emits one compiled-method metadata record per blob.
func (e *Encoder) AddBlobs(blobs []*meta.CompiledMethod) error {
	for _, c := range blobs {
		e.emitMeta(TagBlob, func(w io.Writer) error { return meta.WriteBlob(w, c) })
	}
	return e.err
}

// emitMeta emits one length-prefixed metadata record whose payload write
// produces.
func (e *Encoder) emitMeta(tag byte, write func(io.Writer) error) error {
	if e.err != nil {
		return e.err
	}
	buf := bytes.NewBuffer(append(e.tmp[:0], tag, 0, 0, 0, 0)) // payload length, patched below
	if e.err = write(buf); e.err != nil {
		return e.err
	}
	e.tmp = buf.Bytes()
	binary.LittleEndian.PutUint32(e.tmp[1:5], uint32(len(e.tmp)-5))
	return e.emit(e.tmp)
}

// AddSideband emits one record per scheduler switch.
func (e *Encoder) AddSideband(recs []vm.SwitchRecord) {
	for _, rec := range recs {
		e.tmp = append(e.tmp[:0], TagSideband)
		e.tmp = binary.LittleEndian.AppendUint64(e.tmp, rec.TSC)
		e.tmp = binary.LittleEndian.AppendUint32(e.tmp, uint32(int32(rec.Core)))
		e.tmp = binary.LittleEndian.AppendUint32(e.tmp, uint32(int32(rec.Thread)))
		e.emit(e.tmp)
	}
}

// Watermark emits a watermark record when it moves core's mark forward;
// no-op watermarks are suppressed so repeated delivery of the same frontier
// does not bloat (or diverge) the stream.
func (e *Encoder) Watermark(core int, mark uint64) {
	if e.err != nil || core < 0 || core >= len(e.marks) || mark <= e.marks[core] {
		return
	}
	e.marks[core] = mark
	e.tmp = append(e.tmp[:0], TagWatermark)
	e.tmp = binary.LittleEndian.AppendUint32(e.tmp, uint32(core))
	e.tmp = binary.LittleEndian.AppendUint64(e.tmp, mark)
	e.emit(e.tmp)
}

// Feed emits one trace-chunk record for core.
func (e *Encoder) Feed(core int, items []source.Item) error {
	if e.err != nil {
		return e.err
	}
	if core < 0 || core >= len(e.marks) {
		e.err = fmt.Errorf("streamfmt: chunk for core %d of %d", core, len(e.marks))
		return e.err
	}
	e.tmp = append(e.tmp[:0], TagChunk)
	e.tmp = binary.LittleEndian.AppendUint32(e.tmp, uint32(core))
	e.tmp = append(e.tmp, 0, 0, 0, 0) // payload length, patched below
	for i := range items {
		e.tmp = source.AppendItem(e.tmp, &items[i])
	}
	binary.LittleEndian.PutUint32(e.tmp[5:9], uint32(len(e.tmp)-9))
	return e.emit(e.tmp)
}

// Seal emits the seal record carrying the checksum of everything before
// it. The stream is complete; the encoder accepts no further records.
func (e *Encoder) Seal() error {
	if e.err != nil {
		return e.err
	}
	e.tmp = append(e.tmp[:0], TagSeal)
	e.tmp = binary.LittleEndian.AppendUint32(e.tmp, e.cur.CRC)
	return e.emit(e.tmp)
}

// Err returns the encoder's sticky error: nil until a write fails or a
// record is emitted after Seal.
func (e *Encoder) Err() error { return e.err }
