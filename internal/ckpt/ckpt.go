// Package ckpt frames checkpoint payloads for crash-safe persistence: a
// fixed magic, a format version, the payload length, the payload, and a
// CRC32 seal over everything before it. Open rejects any file that is
// truncated, trailing-garbage-extended, bit-flipped, or from an unknown
// version, so a reader never acts on a torn or foreign checkpoint — it
// falls back to a full run instead (DESIGN.md §11).
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"jportal/internal/fsatomic"
	"jportal/internal/iofault"
)

// Magic identifies a JPortal checkpoint file. The trailing newline makes
// accidental text-mode corruption (CRLF translation) detectable.
const Magic = "JPCKPT1\n"

// Version is the current checkpoint format version. Open only accepts
// files whose header carries a version it knows how to decode.
const Version = 1

// ErrCorrupt reports a checkpoint file that is structurally invalid:
// wrong magic, torn length, payload/CRC mismatch, or trailing garbage.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// headerLen is magic + u32 version + u64 payload length.
const headerLen = len(Magic) + 4 + 8

// maxPayload bounds the declared payload length so a torn length field
// cannot drive a multi-gigabyte allocation before the CRC check.
const maxPayload = 1 << 30

// Seal frames payload into the on-disk checkpoint format.
func Seal(payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload)+4)
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// Open validates a sealed checkpoint and returns its payload. Every
// structural failure returns an error wrapping ErrCorrupt; an unknown
// version is reported distinctly (still an error, but a forward-compat
// signal rather than corruption).
func Open(data []byte) ([]byte, error) {
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the frame", ErrCorrupt, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	ver := binary.LittleEndian.Uint32(data[len(Magic):])
	if ver != Version {
		return nil, fmt.Errorf("ckpt: unsupported checkpoint version %d (this build reads version %d)", ver, Version)
	}
	plen := binary.LittleEndian.Uint64(data[len(Magic)+4:])
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: declared payload length %d exceeds limit", ErrCorrupt, plen)
	}
	want := headerLen + int(plen) + 4
	if len(data) != want {
		return nil, fmt.Errorf("%w: %d bytes, frame declares %d", ErrCorrupt, len(data), want)
	}
	body := data[:len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return data[headerLen : headerLen+int(plen)], nil
}

// WriteFile seals payload and writes it crash-atomically to path through
// fsys (iofault.OS for the real filesystem; the coordinator passes its
// storage fault injector's view).
func WriteFile(fsys iofault.FS, path string, payload []byte) error {
	return fsatomic.WriteFile(fsys, path, Seal(payload), 0o644)
}

// ReadFile reads and validates a sealed checkpoint file through fsys,
// returning the payload. Missing-file errors pass through unwrapped
// (os.IsNotExist works); structural failures wrap ErrCorrupt.
func ReadFile(fsys iofault.FS, path string) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Open(data)
}
