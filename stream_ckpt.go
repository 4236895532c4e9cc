package jportal

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"jportal/internal/ckpt"
	"jportal/internal/core"
	"jportal/internal/fault"
	"jportal/internal/iofault"
	"jportal/internal/trace"
)

// CheckpointFileName is the checkpoint written next to a chunked archive's
// stream.jpt by the resumable replay path.
const CheckpointFileName = "session.ckpt"

// checkpointLayout identifies the stitcher item layout SessionCheckpoint
// gob-encodes: 1 is the 32-byte source.Item whose gap episode shares the
// packet's payload words. An earlier checkpoint carries a gap as separate
// Item fields, which this layout would decode as a kind-0 packet.
const checkpointLayout = 1

// SessionCheckpoint is a Session's complete resumable state at a record
// boundary of the chunked archive (DESIGN.md §11): stitcher frontiers,
// per-thread analyzer state, the quarantine ledger, and the archive cursor
// (how many records had been consumed). The metadata snapshot is NOT part
// of the checkpoint — resume rebuilds it by replaying the archive's
// snapshot and blob records, which is deterministic and keeps the
// checkpoint small.
type SessionCheckpoint struct {
	// Layout is the in-memory record layout the checkpoint was written
	// with (checkpointLayout). Gob matches fields by name, so a checkpoint
	// of another layout can decode without error into wrong items; one
	// written before the field existed decodes it as 0.
	Layout  int
	NCores  int
	Records int
	Peak    int

	Stitcher  trace.StitcherState
	Analyzers []core.ThreadAnalyzerState
	Ledger    fault.LedgerState
}

// ExportCheckpoint snapshots the session between drains. It first waits
// for the workers to analyse every delta routed so far, so the state it
// exports covers exactly the calls made before it; the archive replay loop
// checkpoints only between records.
func (s *Session) ExportCheckpoint(records int) (*SessionCheckpoint, error) {
	if s.closed {
		return nil, errors.New("jportal: checkpoint of a closed session")
	}
	s.pool.Quiesce()
	s.catchUp(0)
	ck := &SessionCheckpoint{
		Layout:    checkpointLayout,
		NCores:    s.ncores,
		Records:   records,
		Peak:      s.peak,
		Stitcher:  s.st.ExportState(),
		Analyzers: make([]core.ThreadAnalyzerState, len(s.threads)),
		Ledger:    s.ledger.ExportState(),
	}
	for i, th := range s.threads {
		ck.Analyzers[i] = th.a.ExportState()
	}
	return ck, nil
}

// RestoreCheckpoint rebuilds a freshly-opened session from a checkpoint.
// The session must have been opened with the same program and core count,
// over a snapshot rebuilt by replaying the archive prefix the checkpoint
// covers — the snapshot's export log must match the checkpointing run's,
// or decoder blob references will not resolve.
func (s *Session) RestoreCheckpoint(ck *SessionCheckpoint) error {
	if s.closed {
		return errors.New("jportal: restore into a closed session")
	}
	if ck.NCores != s.ncores {
		return fmt.Errorf("jportal: checkpoint has %d cores, session has %d", ck.NCores, s.ncores)
	}
	// Quiesce first: no delta may still be running. catchUp then catches
	// every thread's replica up on the prefix's blob records, before the
	// analyzers restore against them.
	s.pool.Quiesce()
	if s.peak != 0 || s.DeltasApplied() != 0 {
		return errors.New("jportal: restore into a session that has already analysed input")
	}
	if err := s.st.RestoreState(ck.Stitcher); err != nil {
		return err
	}
	s.catchUp(len(ck.Analyzers))
	for i := range ck.Analyzers {
		if err := s.threads[i].a.RestoreState(s.ctx, ck.Analyzers[i]); err != nil {
			return fmt.Errorf("jportal: restore thread %d: %w", i, err)
		}
	}
	s.ledger.RestoreState(ck.Ledger)
	s.peak = ck.Peak
	return nil
}

// WriteSessionCheckpoint persists a checkpoint crash-atomically inside the
// sealed ckpt frame (gob payload, CRC-sealed envelope, temp+fsync+rename):
// a torn write leaves the previous checkpoint (or none) intact, never a
// partial file that parses.
func WriteSessionCheckpoint(path string, ck *SessionCheckpoint) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return fmt.Errorf("jportal: encode checkpoint: %w", err)
	}
	return ckpt.WriteFile(iofault.OS, path, buf.Bytes())
}

// ReadSessionCheckpoint loads and validates a checkpoint file. A missing
// file returns os.IsNotExist; a damaged one wraps ckpt.ErrCorrupt. So does
// one of another Layout, whose stitcher items would decode wrong, and one
// whose open or pending segments have tokens without a usable clock: a
// checkpoint written while tokens still carried their own timestamps
// gob-decodes into exactly that, and would resume with every timestamp 0.
func ReadSessionCheckpoint(path string) (*SessionCheckpoint, error) {
	payload, err := ckpt.ReadFile(iofault.OS, path)
	if err != nil {
		return nil, err
	}
	ck := new(SessionCheckpoint)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(ck); err != nil {
		return nil, fmt.Errorf("%w: gob: %v", ckpt.ErrCorrupt, err)
	}
	if ck.Layout != checkpointLayout {
		return nil, fmt.Errorf("%w: record layout %d, want %d", ckpt.ErrCorrupt, ck.Layout, checkpointLayout)
	}
	for i := range ck.Analyzers {
		if err := ck.Analyzers[i].CheckClocks(); err != nil {
			return nil, fmt.Errorf("%w: analyzer %d: %v", ckpt.ErrCorrupt, i, err)
		}
	}
	return ck, nil
}
