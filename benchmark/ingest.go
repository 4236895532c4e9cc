package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jportal"
	"jportal/internal/ingest"
	"jportal/internal/streamfmt"
)

// ingestServer is an in-process ingest.Server on a loopback listener.
type ingestServer struct {
	srv    *ingest.Server
	addr   string
	served chan error
}

func startServer(dataDir string) (*ingestServer, error) {
	srv, err := ingest.NewServer(ingest.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // never served; the listen error is the one to report
		return nil, err
	}
	s := &ingestServer{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *ingestServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// maxChunkBytes is the client's default CHUNK payload bound; the raw
// upload batches records the same way.
const maxChunkBytes = 64 << 10

// prescan does what client.PushArchive does before it dials: read the
// archive's two files and walk every record of the stream up to the seal.
func prescan(dir string) error {
	if _, err := os.ReadFile(filepath.Join(dir, "program.gob")); err != nil {
		return err
	}
	stream, err := os.ReadFile(filepath.Join(dir, jportal.StreamFileName))
	if err != nil {
		return err
	}
	if _, err := streamfmt.ParseHeader(stream); err != nil {
		return err
	}
	records := stream[streamfmt.HeaderLen:]
	for off := 0; off < len(records); {
		n, err := streamfmt.Scan(records[off:])
		if err != nil {
			return err
		}
		if _, ok := streamfmt.SealCRC(records[off : off+n]); ok {
			return nil
		}
		off += n
	}
	return fmt.Errorf("%s: no seal record", dir)
}

// rawStats is one window-1 raw-protocol upload.
type rawStats struct {
	hello, fin time.Duration
	acksUs     []float64
	frames     int
	nacks      int
	bytes      int64
	total      time.Duration
}

// rawPush uploads program and stream as session id over the wire protocol
// directly, with one frame in flight at a time, so every ACK's latency is
// the server's whole frame path: validate, append, persist, acknowledge.
func rawPush(tr *tracer, addr, id string, program, stream []byte) (rawStats, error) {
	var st rawStats
	ncores, err := streamfmt.ParseHeader(stream)
	if err != nil {
		return st, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return st, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		return st, err
	}
	t0 := time.Now()

	sp := tr.begin("ingest.hello")
	err = ingest.WriteFrame(conn, ingest.FrameHello, ingest.AppendHelloSource(nil, ingest.ProtoVersion, ncores, id, ""))
	var typ byte
	var payload []byte
	if err == nil {
		typ, payload, err = ingest.ReadFrame(conn)
	}
	tr.end(sp)
	st.hello = time.Since(t0)
	if err != nil {
		return st, err
	}
	if typ != ingest.FrameHelloAck {
		return st, fmt.Errorf("handshake answered with frame %#x: %s", typ, payload)
	}

	var seq uint64
	send := func(typ byte, data []byte) error {
		seq++
		frame := append(ingest.AppendSeq(make([]byte, 0, 8+len(data)), seq), data...)
		for attempt := 0; ; attempt++ {
			sp := tr.begin("ingest.frame")
			t := time.Now()
			err := ingest.WriteFrame(conn, typ, frame)
			var rt byte
			var rp []byte
			if err == nil {
				rt, rp, err = ingest.ReadFrame(conn)
			}
			tr.end(sp)
			if err != nil {
				return err
			}
			switch rt {
			case ingest.FrameAck:
				got, _, err := ingest.ParseSeq(rp)
				if err != nil {
					return err
				}
				if got != seq {
					return fmt.Errorf("ACK %d for frame %d", got, seq)
				}
				st.acksUs = append(st.acksUs, us(time.Since(t)))
				st.frames++
				st.bytes += int64(len(data))
				return nil
			case ingest.FrameNack:
				st.nacks++
				if attempt == 3 {
					return fmt.Errorf("frame %d refused %d times", seq, attempt+1)
				}
			default:
				return fmt.Errorf("frame %d answered with frame %#x: %s", seq, rt, rp)
			}
		}
	}
	if err := send(ingest.FrameProgram, program); err != nil {
		return st, err
	}
	records := stream[streamfmt.HeaderLen:]
	for off := 0; off < len(records); {
		end := off
		for end < len(records) {
			n, err := streamfmt.Scan(records[end:])
			if err != nil {
				return st, err
			}
			if end > off && end+n-off > maxChunkBytes {
				break
			}
			end += n
		}
		if err := send(ingest.FrameChunk, records[off:end]); err != nil {
			return st, err
		}
		off = end
	}

	sp = tr.begin("ingest.fin")
	t := time.Now()
	err = ingest.WriteFrame(conn, ingest.FrameFin, ingest.AppendSeq(nil, seq))
	if err == nil {
		typ, payload, err = ingest.ReadFrame(conn)
	}
	tr.end(sp)
	st.fin = time.Since(t)
	if err != nil {
		return st, err
	}
	if typ != ingest.FrameFinAck {
		return st, fmt.Errorf("FIN answered with frame %#x: %s", typ, payload)
	}
	st.total = time.Since(t0)
	return st, nil
}

// persistUs times WriteSessionState, the crash-atomic ingest.state write
// the server makes before every ACK, n times in dir.
func persistUs(dir string, n int) ([]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := ingest.WriteSessionState(dir, ingest.SessionState{Seq: uint64(i + 1), Size: int64(i) << 16}); err != nil {
			return nil, err
		}
		out = append(out, us(time.Since(t)))
	}
	return out, nil
}

// settledGoroutines waits until the goroutine count stops falling (the
// connections' goroutines exit asynchronously after Close) and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable, waited := 0, 0; stable < 5 && waited < 100; waited++ {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, stable = m, 0
		} else {
			stable++
		}
	}
	return n
}
