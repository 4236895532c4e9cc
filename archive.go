package jportal

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"jportal/internal/bytecode"
	"jportal/internal/iofault"
	"jportal/internal/meta"
	"jportal/internal/source"
	"jportal/internal/vm"
)

// A run archive is JPortal's deployment interface between the online and
// offline phases (paper §3): everything the offline decoder needs, written
// to a directory as the run produces it. Collection and analysis can
// therefore run in different processes (or machines), exactly as the
// paper separates them. A run analyzed after it finished is the same
// archive, sealed in one pass.

// The archive layout: the three files of a run archive directory. Code in
// this module names them only through these constants.
const (
	// MetaFileName is the header: magic + format version + layout (+
	// source for non-PT runs).
	MetaFileName = "archive.meta"
	// ProgramFileName is the bytecode program (source of the ICFG), as
	// EncodeProgram writes it.
	ProgramFileName = "program.gob"
	// StreamFileName is the append-only record stream — see
	// stream_archive.go.
	StreamFileName = "stream.jpt"
)

const (
	archiveMagicLine = "jportal-run-archive"

	// archiveVersion is the newest header version this binary reads, and
	// archiveVersionMin the oldest. Version 2 added the header itself;
	// version 3 added the source key. Writers stamp the oldest version
	// that can faithfully read the archive (see writeArchiveMeta), so
	// version-gating — not the reader's tolerance for unknown keys — is
	// what keeps a pre-source binary from silently misdecoding a
	// non-Intel-PT archive as PT packets.
	archiveVersion    = 3
	archiveVersionMin = 2

	// layoutChunked is the one archive layout. The header still names it,
	// so a directory of any other shape is refused by name.
	layoutChunked = "chunked"
)

// writeArchiveMeta writes the version header through fsys and, for runs
// collected by a non-default trace source, the source ID. Default (Intel
// PT) archives are stamped with the oldest version and no source key, so
// they stay byte-identical to the ones written before sources existed (the
// golden test pins this). Non-default archives are stamped with the
// current version: a pre-source binary has no Traits for the payload, so
// it must refuse via the version gate rather than misdecode the packets as
// PT.
func writeArchiveMeta(fsys iofault.FS, dir, srcID string) error {
	nonDefault := source.CanonicalID(srcID) != source.DefaultID
	ver := archiveVersionMin
	if nonDefault {
		ver = archiveVersion
	}
	body := fmt.Sprintf("%s\nversion: %d\nlayout: %s\n", archiveMagicLine, ver, layoutChunked)
	if nonDefault {
		body += fmt.Sprintf("source: %s\n", srcID)
	}
	return writeFileFS(fsys, filepath.Join(dir, MetaFileName), []byte(body))
}

// writeFileFS is os.WriteFile routed through an iofault.FS, so the archive
// writers' small fixed artefacts (header, program) draw from the same
// fault streams as the record stream itself.
func writeFileFS(fsys iofault.FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ArchiveSourceID reads and validates dir's archive.meta header and
// reports the trace-source backend the run was collected by
// (source.DefaultID when the header carries no source key). It is the one
// header query: readers open archives through it, the ingest layer routes
// pushed or handed-off sessions by it, the fleet aggregation tier analyzes
// mixed-source archives with it, and the scrubber validates headers with
// it.
func ArchiveSourceID(dir string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, MetaFileName))
	if os.IsNotExist(err) {
		return "", fmt.Errorf("jportal: %s is not a run archive (no %s)", dir, MetaFileName)
	}
	if err != nil {
		return "", err
	}
	_, srcID, err := parseArchiveMeta(raw)
	if err != nil {
		return "", fmt.Errorf("jportal: %s: %w", dir, err)
	}
	return srcID, nil
}

// parseArchiveMeta parses an archive.meta header body: the magic line, the
// version line, the layout, and (version 3+) the optional source key. It
// accepts only chunked archives of a version this binary reads. Pure — no
// filesystem access — so the fuzz target can drive it directly.
func parseArchiveMeta(raw []byte) (version int, srcID string, err error) {
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 || strings.TrimSpace(lines[0]) != archiveMagicLine {
		return 0, "", errors.New("malformed archive header")
	}
	layout := ""
	srcID = source.DefaultID
	for _, ln := range lines[1:] {
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "version":
			version, err = strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				return 0, "", fmt.Errorf("bad archive version %q", strings.TrimSpace(v))
			}
		case "layout":
			layout = strings.TrimSpace(v)
		case "source":
			srcID = strings.TrimSpace(v)
			if srcID == "" {
				// Writers only stamp a source key for non-default
				// backends; an empty value is a damaged header, not a
				// spelling of the default.
				return 0, "", errors.New("archive header has an empty source key")
			}
		}
	}
	if version == 0 {
		return 0, "", errors.New("archive header missing a version")
	}
	if version < archiveVersionMin || version > archiveVersion {
		return 0, "", fmt.Errorf("unsupported archive version %d (this binary reads versions %d to %d)",
			version, archiveVersionMin, archiveVersion)
	}
	if layout != layoutChunked {
		return 0, "", fmt.Errorf("unsupported archive layout %q (only %q archives exist)", layout, layoutChunked)
	}
	return version, srcID, nil
}

// LoadRun reads a sealed archive and materialises it as a batch RunResult
// — per-core traces in core order, sideband and snapshot — so batch
// consumers (jportal decode, the experiments) read the same archives the
// streaming replay does. There is no oracle and there are no runtime
// stats: those exist only in the collecting process.
func LoadRun(dir string) (*bytecode.Program, *RunResult, error) {
	r, err := OpenStreamArchive(dir)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	var snap *meta.Snapshot
	var sideband []vm.SwitchRecord
	items := make([][]source.Item, r.NumCores())
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err == ErrStreamPending {
			return nil, nil, fmt.Errorf("jportal: %s is an unsealed archive; use jportal stream -follow", dir)
		}
		if err != nil {
			return nil, nil, err
		}
		if ev.Kind != EvSnapshot && snap == nil {
			return nil, nil, fmt.Errorf("jportal: %s: %s record before snapshot", dir, ev.Kind)
		}
		switch ev.Kind {
		case EvSnapshot:
			snap = ev.Snapshot
		case EvBlob:
			snap.Export(ev.Blob)
		case EvSideband:
			sideband = append(sideband, ev.Rec)
		case EvChunk:
			if ev.Core < 0 || ev.Core >= len(items) {
				return nil, nil, fmt.Errorf("jportal: %s: chunk for core %d of %d", dir, ev.Core, len(items))
			}
			items[ev.Core] = append(items[ev.Core], ev.Items...)
		}
	}
	if snap == nil {
		return nil, nil, fmt.Errorf("jportal: %s: stream has no snapshot record", dir)
	}
	traces := make([]source.CoreTrace, r.NumCores())
	for c := range traces {
		traces[c] = source.CoreTrace{Core: c, Items: items[c]}
	}
	return r.Program(), &RunResult{Traces: traces, Sideband: sideband, Snapshot: snap, SourceID: r.Source().ID()}, nil
}

// EncodeProgram serialises prog as an archive's program bytes. It is the
// one encoder: the local archive writer and the live push both call it, so
// their archives are byte-identical.
func EncodeProgram(prog *bytecode.Program) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(prog); err != nil {
		return nil, fmt.Errorf("jportal: encode %s: %w", ProgramFileName, err)
	}
	return buf.Bytes(), nil
}

// decodeProgram decodes program bytes and verifies the program is well
// formed. Every reader of program bytes — an archive being opened, a
// program relayed to the ingest server — checks them through it before
// anything builds on them.
func decodeProgram(b []byte) (*bytecode.Program, error) {
	var prog bytecode.Program
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&prog); err != nil {
		return nil, fmt.Errorf("jportal: decode %s: %w", ProgramFileName, err)
	}
	if err := bytecode.Verify(&prog); err != nil {
		return nil, fmt.Errorf("jportal: %s invalid: %w", ProgramFileName, err)
	}
	return &prog, nil
}

// SameArchive reports whether the run archives in dirs a and b are
// byte-identical: header, program and record stream. It returns nil when
// they are, and otherwise an error naming the first file that differs or
// cannot be read.
func SameArchive(a, b string) error {
	for _, name := range []string{MetaFileName, ProgramFileName, StreamFileName} {
		x, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			return err
		}
		y, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			return err
		}
		if !bytes.Equal(x, y) {
			return fmt.Errorf("jportal: %s diverges: %s has %d bytes, %s has %d", name, a, len(x), b, len(y))
		}
	}
	return nil
}
