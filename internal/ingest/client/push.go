package client

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"jportal"
	"jportal/internal/ingest"
	"jportal/internal/streamfmt"
)

// PushStats summarises one archive upload.
type PushStats struct {
	Frames     int    // data frames transmitted (or skipped as resumed)
	Bytes      int64  // payload bytes of those frames
	ResumeSeq  uint64 // server frontier at handshake (non-zero: resumed)
	Reconnects int
	Nacks      int
}

// PushArchive replays the sealed chunked archive in dir to a jportal serve
// instance. The upload is resumable: pushing the same archive under the
// same session id after an interruption (or after ACKs were lost) skips
// everything the server already archived and completes the rest, and the
// server-side archive comes out byte-identical to dir's stream.jpt and
// program.gob.
func PushArchive(ctx context.Context, opts Options, dir string) (PushStats, error) {
	var st PushStats
	programGob, err := os.ReadFile(filepath.Join(dir, jportal.ProgramFileName))
	if err != nil {
		return st, err
	}
	stream, err := os.ReadFile(filepath.Join(dir, jportal.StreamFileName))
	if err != nil {
		return st, err
	}
	ncores, err := streamfmt.ParseHeader(stream)
	if err != nil {
		return st, fmt.Errorf("ingest client: %s: %w", dir, err)
	}
	if opts.SourceID == "" {
		src, err := jportal.ArchiveSourceID(dir)
		if err != nil {
			return st, err
		}
		opts.SourceID = src
	}

	// Pre-scan the stream: it must pass the seal check end to end before
	// anything is sent. An unsealed (still-being-written) archive would
	// leave the server waiting for a seal that never comes, and a damaged
	// one would be relayed only for the server to poison the session.
	cur, err := streamfmt.Walk(stream)
	switch {
	case errors.Is(err, streamfmt.ErrShort):
		return st, fmt.Errorf("ingest client: %s has an incomplete record tail (writer still running?)", dir)
	case err != nil:
		return st, fmt.Errorf("ingest client: %s: %w", dir, err)
	case !cur.Sealed:
		return st, fmt.Errorf("ingest client: %s is unsealed; finish the collection before pushing", dir)
	}

	p, err := Dial(ctx, opts, ncores)
	if err != nil {
		return st, err
	}
	defer p.Close()
	st.ResumeSeq = p.ResumeSeq()

	send := func(typ byte, data []byte) error {
		if _, err := p.Send(typ, data); err != nil {
			return err
		}
		st.Frames++
		st.Bytes += int64(len(data))
		return nil
	}
	if err := send(ingest.FrameProgram, programGob); err != nil {
		return st, err
	}
	frames, err := ChunkFrames(stream[streamfmt.HeaderLen:], p.opts.MaxChunkBytes)
	if err != nil {
		return st, err
	}
	for _, f := range frames {
		if err := send(ingest.FrameChunk, f); err != nil {
			return st, err
		}
	}
	if err := p.Finish(); err != nil {
		return st, err
	}
	st.Reconnects = p.Reconnects()
	st.Nacks = p.Nacks()
	return st, nil
}

// ChunkFrames batches a stream's records (the bytes after its header) into
// CHUNK payloads of whole records, each at most maxBytes unless a single
// record is larger. The batching is deterministic for a given archive, so
// a resumed push reproduces the same frame sequence and the server's
// skip-below-frontier logic lines up exactly — and a frontier fabricated
// from these frames lands where a resumed push expects it.
func ChunkFrames(records []byte, maxBytes int) ([][]byte, error) {
	var frames [][]byte
	for off := 0; off < len(records); {
		end := off
		for end < len(records) {
			n, err := streamfmt.Scan(records[end:])
			if err != nil {
				return nil, err
			}
			if end > off && end+n-off > maxBytes {
				break
			}
			end += n
		}
		frames = append(frames, records[off:end])
		off = end
	}
	return frames, nil
}
