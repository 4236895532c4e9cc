// Package ingest is jportal's networked trace-ingest layer: a TCP server
// (jportal serve) that accepts many concurrent agent connections, each
// relaying the records of a run archive (internal/streamfmt), and
// assembles per-session archives byte-identical to what a local
// `jportal collect` of the same run would have written.
//
// # Wire protocol
//
// A connection carries length-prefixed frames, little-endian throughout:
//
//	u8 type | u32 payloadLen | payload
//
// The client opens with HELLO (protocol version, core count, session id)
// and the server answers HELLO_ACK with the highest contiguous sequence
// number it has durably archived for that session — zero for a fresh
// session. Data then flows as PROGRAM (the program.gob bytes, always
// sequence 1) and CHUNK frames (whole stream.jpt records, sequences 2..N),
// each acknowledged cumulatively with ACK once appended and flushed.
// The exchange ends with FIN/FIN_ACK after the stream's seal record has
// arrived and its CRC has been verified.
//
// Sequence numbers make re-delivery idempotent: a frame at or below the
// acknowledged sequence is dropped (and re-ACKed), so a client that
// reconnects after losing ACKs can blindly resend its unacknowledged tail.
// A gap — or a frame shed because the server's memory budget is exhausted
// — earns a NACK carrying the sequence the server wants next; the client
// backs off and resends from there.
// ERR is terminal for the connection and carries a human-readable reason.
// BUSY answers a HELLO the server refuses for load reasons — the
// concurrent-session cap or the global memory budget — and carries a
// retry-after hint in milliseconds; the client backs off with jitter and
// redials instead of treating the refusal as an error.
// REDIRECT answers a HELLO for a session this process does not own in a
// sharded fleet: it carries the owning node's ingest address and the
// client redials there. A HELLO of any protocol version but ProtoVersion
// is answered with a typed ERR in the "protocol-version" category — never
// a frame the client could misparse, never silence.
package ingest

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"jportal/internal/source"
)

// ProtoVersion is the frame-protocol version exchanged in HELLO, and the
// only one servers and clients speak: the one with the BUSY
// admission-control frame, the fleet REDIRECT frame and the optional HELLO
// source-ID field.
const ProtoVersion = 3

// Frame types.
const (
	FrameHello    byte = 0x01 // c->s: u32 version | u32 ncores | u16 idLen | id
	FrameHelloAck byte = 0x02 // s->c: u32 version | u64 resumeSeq
	FrameProgram  byte = 0x03 // c->s: u64 seq | program.gob bytes
	FrameChunk    byte = 0x04 // c->s: u64 seq | whole stream.jpt records
	FrameFin      byte = 0x05 // c->s: u64 lastSeq
	FrameAck      byte = 0x06 // s->c: u64 seq (cumulative)
	FrameNack     byte = 0x07 // s->c: u64 wantSeq (resend from here, after backoff)
	FrameFinAck   byte = 0x08 // s->c: u64 seq
	FrameErr      byte = 0x09 // s->c: utf-8 message, connection is dead
	FrameBusy     byte = 0x0A // s->c: u32 retryAfterMs; admission refused, retry later
	FrameRedirect byte = 0x0B // s->c: u16 addrLen | addr; session owned by another node, redial there
)

// MaxFramePayload caps a frame's payload. Chunks are far smaller (the
// client defaults to 64KiB); the cap keeps a corrupt or hostile length
// field from driving a giant allocation.
const MaxFramePayload = 1 << 24

// MaxSessionIDLen bounds the session id, which doubles as the archive
// directory name under the server's data dir.
const MaxSessionIDLen = 128

// WriteFrame writes one frame. The payload may be nil.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, enforcing MaxFramePayload.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("ingest: frame %#x declares %d payload bytes (max %d)", hdr[0], n, MaxFramePayload)
	}
	if n > 0 {
		payload = make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
	}
	return hdr[0], payload, nil
}

// AppendHelloSource encodes a HELLO payload carrying a trace-source ID:
// the server initializes the session's archive header with it, so
// non-default backends (RISC-V E-Trace) survive the network hop and any
// later node handoff. The default backend ("" or source.DefaultID) sends
// no source field.
func AppendHelloSource(dst []byte, version uint32, ncores int, id, src string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, version)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ncores))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(id)))
	dst = append(dst, id...)
	if source.CanonicalID(src) == source.DefaultID {
		return dst
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(src)))
	return append(dst, src...)
}

// ParseHello decodes a HELLO payload. src is empty unless the client sent
// the optional source-ID field.
func ParseHello(p []byte) (version uint32, ncores int, id, src string, err error) {
	if len(p) < 10 {
		return 0, 0, "", "", fmt.Errorf("ingest: short HELLO (%d bytes)", len(p))
	}
	version = binary.LittleEndian.Uint32(p[0:4])
	ncores = int(binary.LittleEndian.Uint32(p[4:8]))
	n := int(binary.LittleEndian.Uint16(p[8:10]))
	if len(p) < 10+n {
		return 0, 0, "", "", fmt.Errorf("ingest: HELLO id length %d does not match payload", n)
	}
	id = string(p[10 : 10+n])
	rest := p[10+n:]
	if len(rest) == 0 {
		return version, ncores, id, "", nil
	}
	if len(rest) < 2 {
		return 0, 0, "", "", fmt.Errorf("ingest: HELLO has a torn source field (%d trailing bytes)", len(rest))
	}
	sn := int(binary.LittleEndian.Uint16(rest[0:2]))
	if len(rest) != 2+sn {
		return 0, 0, "", "", fmt.Errorf("ingest: HELLO source length %d does not match payload", sn)
	}
	return version, ncores, id, string(rest[2:]), nil
}

// ValidSessionID reports whether id is acceptable as a session identifier:
// non-empty, bounded, and safe to use as a directory name (letters, digits,
// '.', '_', '-'; must not start with '.', so neither "." nor ".." nor
// hidden-file names pass).
func ValidSessionID(id string) bool {
	if id == "" || len(id) > MaxSessionIDLen || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// AppendSeq encodes the single-u64 payloads (HELLO_ACK, ACK, NACK, FIN,
// FIN_ACK) and the sequence prefix of PROGRAM/CHUNK.
func AppendSeq(dst []byte, seq uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// ParseSeq decodes a payload that begins with a u64 sequence number and
// returns the remainder (the data of PROGRAM/CHUNK frames).
func ParseSeq(p []byte) (seq uint64, rest []byte, err error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("ingest: short sequenced payload (%d bytes)", len(p))
	}
	return binary.LittleEndian.Uint64(p[0:8]), p[8:], nil
}

// AppendBusy encodes a BUSY payload: how long the client should wait
// before redialing, in milliseconds. BUSY is an admission-control verdict,
// not a connection error — the session may well be accepted on retry.
func AppendBusy(dst []byte, retryAfterMs uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, retryAfterMs)
}

// ParseBusy decodes a BUSY payload.
func ParseBusy(p []byte) (retryAfterMs uint32, err error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("ingest: BUSY payload is %d bytes, want 4", len(p))
	}
	return binary.LittleEndian.Uint32(p), nil
}

// AppendHelloAck encodes a HELLO_ACK payload: the protocol version the
// server speaks and the resume sequence (highest contiguous sequence
// durably archived; the client resends from resumeSeq+1).
func AppendHelloAck(dst []byte, version uint32, resumeSeq uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, version)
	return binary.LittleEndian.AppendUint64(dst, resumeSeq)
}

// ParseHelloAck decodes a HELLO_ACK payload.
func ParseHelloAck(p []byte) (version uint32, resumeSeq uint64, err error) {
	if len(p) != 12 {
		return 0, 0, fmt.Errorf("ingest: HELLO_ACK payload is %d bytes, want 12", len(p))
	}
	return binary.LittleEndian.Uint32(p[0:4]), binary.LittleEndian.Uint64(p[4:12]), nil
}

// MaxRedirectAddrLen bounds a REDIRECT target address.
const MaxRedirectAddrLen = 256

// AppendRedirect encodes a REDIRECT payload: the ingest address (host:port)
// of the node that owns the session. The client closes this connection and
// redials the owner.
func AppendRedirect(dst []byte, addr string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(addr)))
	return append(dst, addr...)
}

// ParseRedirect decodes a REDIRECT payload.
func ParseRedirect(p []byte) (addr string, err error) {
	if len(p) < 2 {
		return "", fmt.Errorf("ingest: short REDIRECT (%d bytes)", len(p))
	}
	n := int(binary.LittleEndian.Uint16(p[0:2]))
	if len(p) != 2+n || n == 0 || n > MaxRedirectAddrLen {
		return "", fmt.Errorf("ingest: REDIRECT address length %d does not match payload", n)
	}
	return string(p[2:]), nil
}

// ErrCategoryProtocol is the typed-ERR category for protocol-version
// verdicts: the client's HELLO named a version other than ProtoVersion.
// Clients surface the category instead of retrying — redialing the same
// address with the same version cannot succeed.
const ErrCategoryProtocol = "protocol-version"

// ErrCategoryRedirectLoop is the typed category for redirect-hop
// exhaustion: the client followed its redirect bound without reaching the
// session's owner (a ring update racing the dial, or a partitioned fleet
// bouncing the session between stale views). Terminal for the attempt —
// the hop trail is in the message — though unlike a protocol mismatch a
// later dial against a settled ring may succeed.
const ErrCategoryRedirectLoop = "redirect-loop"

// errCategories lists every category SplitErr recognizes.
var errCategories = []string{ErrCategoryProtocol, ErrCategoryRedirectLoop}

// FormatErr renders a typed ERR payload as "category: message". Untyped
// errors keep using plain messages; SplitErr returns an empty category for
// them.
func FormatErr(category, msg string) []byte {
	return []byte(category + ": " + msg)
}

// SplitErr splits an ERR payload into its category and message. Payloads
// without a known category come back with category "" and the full text as
// the message.
func SplitErr(payload []byte) (category, msg string) {
	s := string(payload)
	for _, c := range errCategories {
		if rest, ok := strings.CutPrefix(s, c+": "); ok {
			return c, rest
		}
	}
	return "", s
}
