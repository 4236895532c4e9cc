package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"jportal/internal/iofault"
)

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)} {
		sealed := Seal(payload)
		got, err := Open(sealed)
		if err != nil {
			t.Fatalf("Open(Seal(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: %d bytes in, %d out", len(payload), len(got))
		}
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	sealed := Seal([]byte("the quick brown fox"))

	cases := map[string][]byte{
		"empty":      {},
		"short":      sealed[:headerLen],
		"truncated":  sealed[:len(sealed)-1],
		"trailing":   append(append([]byte{}, sealed...), 0x00),
		"bad magic":  append([]byte("NOTCKPT\n"), sealed[len(Magic):]...),
		"zeroed len": func() []byte { c := append([]byte{}, sealed...); c[len(Magic)+4] ^= 0xFF; return c }(),
	}
	for name, data := range cases {
		if _, err := Open(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}

	// A single flipped payload bit must fail the CRC.
	flipped := append([]byte{}, sealed...)
	flipped[headerLen+3] ^= 0x01
	if _, err := Open(flipped); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip: want ErrCorrupt, got %v", err)
	}

	// An unknown version is an error but not ErrCorrupt: the file may be
	// fine, this build just cannot read it.
	future := append([]byte{}, sealed...)
	future[len(Magic)] = 99
	if _, err := Open(future); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("future version: want a non-corrupt error, got %v", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.ckpt")
	payload := []byte("checkpoint payload")
	if err := WriteFile(iofault.OS, path, payload); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(iofault.OS, path)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadFile: %q, %v", got, err)
	}

	// Missing files surface as os.IsNotExist, not ErrCorrupt: the caller
	// distinguishes "no checkpoint yet" from "checkpoint damaged".
	_, err = ReadFile(iofault.OS, filepath.Join(t.TempDir(), "absent.ckpt"))
	if !os.IsNotExist(err) {
		t.Fatalf("missing file: want not-exist, got %v", err)
	}

	// A torn write (simulated by truncating the file) is ErrCorrupt.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(iofault.OS, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn file: want ErrCorrupt, got %v", err)
	}
}
