package source

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The item record encoding: a 1-byte tag followed by a fixed-size payload.
// Packet records carry the full Packet struct fields; gap records carry
// the loss episode. The encoding is a neutral struct dump — byte-identical
// for every source — so one framing serves all backends; validation is the
// per-source part, driven by Traits. The archive's chunk records
// (internal/streamfmt) are runs of these records, and their sizes are what
// Table 5 reports as "TS".

const (
	tagPacket byte = 0x01
	tagGap    byte = 0x02
)

// AppendItem appends the wire encoding of one item (a tagged record) to
// dst and returns the extended slice. It is the unit the archive's chunk
// records frame trace chunks with.
func AppendItem(dst []byte, it *Item) []byte {
	var buf [28]byte
	if it.IsGap() {
		buf[0] = tagGap
		binary.LittleEndian.PutUint64(buf[1:9], it.LostBytes())
		binary.LittleEndian.PutUint64(buf[9:17], it.GapStart())
		binary.LittleEndian.PutUint64(buf[17:25], it.GapEnd())
		return append(dst, buf[:25]...)
	}
	p := &it.Packet
	buf[0] = tagPacket
	buf[1] = byte(p.Kind)
	buf[2] = p.NBits
	buf[3] = p.WireLen
	binary.LittleEndian.PutUint64(buf[4:12], p.IP)
	binary.LittleEndian.PutUint64(buf[12:20], p.Bits)
	binary.LittleEndian.PutUint64(buf[20:28], p.TSC)
	return append(dst, buf[:28]...)
}

// DecodeItem decodes one item record from the front of src, returning the
// item and the number of bytes consumed. Records that decode but fail the
// source's validation are rejected with ErrMalformed.
func DecodeItem(src []byte, tr *Traits) (Item, int, error) {
	if len(src) == 0 {
		return Item{}, 0, io.ErrUnexpectedEOF
	}
	switch src[0] {
	case tagGap:
		if len(src) < 25 {
			return Item{}, 0, io.ErrUnexpectedEOF
		}
		it := decodeGapPayload(src[1:25])
		if err := tr.ValidateItem(&it); err != nil {
			return Item{}, 0, err
		}
		return it, 25, nil
	case tagPacket:
		if len(src) < 28 {
			return Item{}, 0, io.ErrUnexpectedEOF
		}
		it := Item{Packet: decodePacketPayload(src[1:28])}
		if err := tr.ValidateItem(&it); err != nil {
			return Item{}, 0, err
		}
		return it, 28, nil
	}
	return Item{}, 0, fmt.Errorf("source: unknown record tag %#x", src[0])
}

func decodeGapPayload(buf []byte) Item {
	return GapItem(
		binary.LittleEndian.Uint64(buf[0:8]),
		binary.LittleEndian.Uint64(buf[8:16]),
		binary.LittleEndian.Uint64(buf[16:24]),
	)
}

func decodePacketPayload(buf []byte) Packet {
	return Packet{
		Kind:    Kind(buf[0]),
		NBits:   buf[1],
		WireLen: buf[2],
		IP:      binary.LittleEndian.Uint64(buf[3:11]),
		Bits:    binary.LittleEndian.Uint64(buf[11:19]),
		TSC:     binary.LittleEndian.Uint64(buf[19:27]),
	}
}
