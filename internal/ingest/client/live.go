package client

import (
	"context"

	"jportal"
	"jportal/internal/bytecode"
	"jportal/internal/ingest"
	"jportal/internal/meta"
	"jportal/internal/streamfmt"
)

// LiveSink streams a run's records to an ingest server as the run
// produces them: the networked counterpart of jportal's
// StreamArchiveWriter. Its embedded encoder — the same streamfmt.Encoder
// the local writer embeds, with the same suppression of no-op watermarks
// and the same CRC-carrying seal — is the jportal.TraceSink and
// jportal.BlobSink, so it plugs straight into jportal.RunWithSink, and the
// server-side archive is byte-identical to a local one of the same
// deterministic run.
//
// Records accumulate in a buffer that is cut into CHUNK frames at record
// boundaries; Drain pushes whatever is buffered, mirroring the local
// writer's flush-to-disk. Seal completes the stream and the upload.
type LiveSink struct {
	*streamfmt.Encoder
	p        *Pusher
	buf      []byte
	maxChunk int
	err      error // first transport error; sticky
}

// NewLiveSink dials the server, transmits the program, and opens the
// record stream with the snapshot record.
func NewLiveSink(ctx context.Context, opts Options, prog *bytecode.Program, snap *meta.Snapshot, ncores int) (*LiveSink, error) {
	programGob, err := jportal.EncodeProgram(prog)
	if err != nil {
		return nil, err
	}
	p, err := Dial(ctx, opts, ncores)
	if err != nil {
		return nil, err
	}
	s := &LiveSink{p: p, maxChunk: p.opts.MaxChunkBytes}
	if _, err := p.Send(ingest.FrameProgram, programGob); err != nil {
		p.Close()
		return nil, err
	}
	s.Encoder = streamfmt.NewRawEncoder((*liveWriter)(s), ncores)
	if err := s.Snapshot(snap); err != nil {
		p.Close()
		return nil, err
	}
	return s, nil
}

// liveWriter receives one whole record per Write (the Encoder's contract)
// and cuts the stream into frames at record boundaries.
type liveWriter LiveSink

func (w *liveWriter) Write(rec []byte) (int, error) {
	s := (*LiveSink)(w)
	s.buf = append(s.buf, rec...)
	if len(s.buf) >= s.maxChunk {
		if err := s.flush(); err != nil {
			return 0, err
		}
	}
	return len(rec), nil
}

// flush sends the buffered records as one CHUNK frame.
func (s *LiveSink) flush() error {
	if s.err != nil || len(s.buf) == 0 {
		return s.err
	}
	if _, s.err = s.p.Send(ingest.FrameChunk, s.buf); s.err != nil {
		return s.err
	}
	s.buf = s.buf[:0]
	return nil
}

// Drain pushes buffered records to the server (jportal.TraceSink).
func (s *LiveSink) Drain() error {
	if err := s.Err(); err != nil {
		return err
	}
	return s.flush()
}

// Seal ends the stream with the CRC-carrying seal record, waits for the
// server to acknowledge and verify the complete upload, and closes the
// connection.
func (s *LiveSink) Seal() error {
	err := s.Encoder.Seal()
	if err == nil {
		err = s.flush()
	}
	if err == nil {
		err = s.p.Finish()
	}
	s.p.Close()
	return err
}

// Pusher exposes the underlying connection's stats (reconnects, NACKs).
func (s *LiveSink) Pusher() *Pusher { return s.p }
