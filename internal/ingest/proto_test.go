package ingest

import (
	"bytes"
	"strings"
	"testing"

	"jportal/internal/source"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type %#x", i, typ)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
}

func TestReadFrameEnforcesCap(t *testing.T) {
	// A frame header declaring more than MaxFramePayload must be rejected
	// before any allocation happens.
	hdr := []byte{FrameChunk, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	p := AppendHelloSource(nil, ProtoVersion, 8, "agent-01", "")
	version, ncores, id, src, err := ParseHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if version != ProtoVersion || ncores != 8 || id != "agent-01" || src != "" {
		t.Fatalf("got version=%d ncores=%d id=%q src=%q", version, ncores, id, src)
	}
	if _, _, _, _, err := ParseHello(p[:5]); err == nil {
		t.Error("short HELLO accepted")
	}
	if _, _, _, _, err := ParseHello(append(p, 'x')); err == nil {
		t.Error("HELLO with trailing bytes accepted")
	}
}

func TestHelloSourceRoundTrip(t *testing.T) {
	// An explicit non-default source travels as the HELLO suffix.
	p := AppendHelloSource(nil, ProtoVersion, 4, "agent-02", "riscv-etrace")
	version, ncores, id, src, err := ParseHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if version != ProtoVersion || ncores != 4 || id != "agent-02" || src != "riscv-etrace" {
		t.Fatalf("got version=%d ncores=%d id=%q src=%q", version, ncores, id, src)
	}
	// The default backend, in either spelling, omits the suffix entirely:
	// the frame ends at the session id, as it did before sources existed.
	plain := AppendHelloSource(nil, ProtoVersion, 4, "agent-02", "")
	named := AppendHelloSource(nil, ProtoVersion, 4, "agent-02", source.DefaultID)
	if len(plain) != 10+len("agent-02") || !bytes.Equal(plain, named) {
		t.Fatalf("default source changed the wire form: %x vs %x", plain, named)
	}
	// Truncated suffix must be rejected, not read past.
	if _, _, _, _, err := ParseHello(p[:len(p)-1]); err == nil {
		t.Error("truncated source suffix accepted")
	}
}

func TestRedirectRoundTrip(t *testing.T) {
	p := AppendRedirect(nil, "10.0.0.7:7070")
	addr, err := ParseRedirect(p)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "10.0.0.7:7070" {
		t.Fatalf("got addr %q", addr)
	}
	if _, err := ParseRedirect(p[:1]); err == nil {
		t.Error("short REDIRECT accepted")
	}
	if _, err := ParseRedirect(append(p, 'x')); err == nil {
		t.Error("REDIRECT with trailing bytes accepted")
	}
	if _, err := ParseRedirect(AppendRedirect(nil, "")); err == nil {
		t.Error("empty REDIRECT address accepted")
	}
}

func TestErrCategoryRoundTrip(t *testing.T) {
	p := FormatErr(ErrCategoryProtocol, "need v3")
	cat, msg := SplitErr(p)
	if cat != ErrCategoryProtocol || msg != "need v3" {
		t.Fatalf("got category=%q msg=%q", cat, msg)
	}
	cat, msg = SplitErr([]byte("plain old error text"))
	if cat != "" || msg != "plain old error text" {
		t.Fatalf("uncategorised payload: category=%q msg=%q", cat, msg)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	p := AppendHelloAck(nil, ProtoVersion, 42)
	version, seq, err := ParseHelloAck(p)
	if err != nil {
		t.Fatal(err)
	}
	if version != ProtoVersion || seq != 42 {
		t.Fatalf("got version=%d seq=%d", version, seq)
	}
	if _, _, err := ParseHelloAck(p[:8]); err == nil {
		t.Error("short HELLO_ACK accepted")
	}
}

func TestSeqRoundTrip(t *testing.T) {
	p := AppendSeq(nil, 7)
	p = append(p, "data"...)
	seq, rest, err := ParseSeq(p)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || string(rest) != "data" {
		t.Fatalf("got seq=%d rest=%q", seq, rest)
	}
	if _, _, err := ParseSeq(p[:4]); err == nil {
		t.Error("short sequenced payload accepted")
	}
}

func TestValidSessionID(t *testing.T) {
	good := []string{"a", "agent-01", "h2_run.3", "A-B_c.9", strings.Repeat("x", MaxSessionIDLen)}
	for _, id := range good {
		if !ValidSessionID(id) {
			t.Errorf("ValidSessionID(%q) = false", id)
		}
	}
	bad := []string{"", ".", "..", ".hidden", "a/b", "a\\b", "a b", "a\x00b", "ü",
		strings.Repeat("x", MaxSessionIDLen+1)}
	for _, id := range bad {
		if ValidSessionID(id) {
			t.Errorf("ValidSessionID(%q) = true", id)
		}
	}
}

func TestParseStateRoundTrip(t *testing.T) {
	st := SessionState{Seq: 9, Size: 12345, CRC: 0xDEADBEEF, Sealed: true}
	body := stateBody(st)
	got, err := parseState(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatalf("round trip: %+v vs %+v", got, st)
	}
	for _, raw := range []string{
		"", "garbage", "jportal-ingest-state\nseq: x\nbytes: 20\ncrc: 0\nsealed: false\n",
		"jportal-ingest-state\nseq: 1\nbytes: 2\ncrc: 0\nsealed: false\n", // size < header
	} {
		if _, err := parseState(raw); err == nil {
			t.Errorf("parseState(%q) accepted", raw)
		}
	}
}
