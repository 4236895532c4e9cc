package jportal

// Fuzz target for the archive.meta header parser, the storage-layer
// sibling of the streamfmt fuzz targets: whatever bytes a damaged disk
// hands back, parseArchiveMeta must return a clean verdict — never panic,
// and never accept a header that violates its own invariants.

import (
	"strings"
	"testing"

	"jportal/internal/source"
)

func FuzzArchiveMeta(f *testing.F) {
	f.Add([]byte("jportal-run-archive\nversion: 2\nlayout: chunked\n"))
	f.Add([]byte("jportal-run-archive\nversion: 3\nlayout: chunked\nsource: etrace\n"))
	f.Add([]byte("jportal-run-archive\nversion: 2\nlayout: batch\n"))
	f.Add([]byte("jportal-run-archive\nversion: 1\nlayout: chunked\n"))
	f.Add([]byte("jportal-run-archive\nversion: 99\nlayout: chunked\n"))
	f.Add([]byte("jportal-run-archive\nversion: -1\nlayout: chunked\n"))
	f.Add([]byte("jportal-run-archive\nversion: x\nlayout: chunked\n"))
	f.Add([]byte("jportal-run-archive\r\nversion: 2\r\nlayout: chunked\r\n"))
	f.Add([]byte(""))
	f.Add([]byte("garbage"))
	f.Add([]byte("jportal-run-archive\nversion: 3\nlayout: chunked\nsource: \n"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		version, srcID, err := parseArchiveMeta(raw)
		if err != nil {
			return
		}
		// Accepted headers must satisfy the invariants every reader
		// depends on; a violation here would become a misdecode later.
		if version < archiveVersionMin || version > archiveVersion {
			t.Fatalf("accepted out-of-range version %d", version)
		}
		// Chunked is the only layout: an accepted header names it.
		if !strings.Contains(string(raw), "layout") || !strings.Contains(string(raw), layoutChunked) {
			t.Fatalf("accepted a header that does not declare the %q layout: %q", layoutChunked, raw)
		}
		if srcID == "" {
			t.Fatal("accepted header resolved to an empty source ID")
		}
		if strings.ContainsAny(srcID, "\n\r") {
			t.Fatalf("source ID %q carries line breaks", srcID)
		}
		// The default source spelling must be canonical: a header with no
		// source key reads back as source.DefaultID, never "".
		if !strings.Contains(string(raw), "source") && srcID != source.DefaultID {
			t.Fatalf("sourceless header resolved to %q, want %q", srcID, source.DefaultID)
		}
	})
}
