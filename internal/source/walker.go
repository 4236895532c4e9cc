package source

import (
	"fmt"

	"jportal/internal/bytecode"
	"jportal/internal/isa"
	"jportal/internal/meta"
)

// Walker is the one decoder (the role libipt plays in the paper, §2/§3.2):
// given a source's Traits and the machine-code metadata snapshot, it
// reconstructs the native-level control flow from a packet stream. For
// addresses in the code cache it walks the compiled blobs — following
// linear code, direct jumps and calls, consuming one branch bit per
// conditional and one indirect target per indirect transfer — and yields
// the executed instruction ranges (paper Fig 3d). For addresses in the
// interpreter's template area it yields dispatch events identifying the
// interpreted opcode (paper Fig 2e). Data-loss gaps, desynchronisation and
// malformed packets are surfaced as events so the bytecode-level layers
// (package core) can segment the trace. Packets are dispatched by their
// role in the Traits' role table, so every source decodes, degrades and
// checkpoints identically.
type Walker struct {
	tr   *Traits
	snap *meta.Snapshot

	// out is the reused output buffer: truncated (not reallocated) at the
	// start of every Decode/DecodeChunk/Flush, so the steady state emits
	// into warm memory. undelivered
	// tracks events emitted but not yet returned to the caller — the
	// checkpoint quiescence signal.
	out         []Event
	undelivered bool

	mode  mode
	curOp bytecode.Opcode // last dispatched template op

	blob       *meta.CompiledMethod
	idx        int // next instruction index within blob
	rangeStart int // first index of the pending range, -1 if none

	bits  uint64
	nbits int

	tsc uint64

	// armed is set by an Anchor-role packet (FUP, TRAP): the next indirect
	// target is an asynchronous transfer (exception, OSR) and must not be
	// matched against a pending indirect instruction.
	armed bool

	// skipSync is set after a malformed packet: every packet until the
	// next synchronisation packet (or a loss gap, which is its own resync
	// point) is discarded — the stream position is untrustworthy until a
	// synchronisation boundary.
	skipSync bool

	// Desyncs counts re-anchoring events (diagnostics).
	Desyncs int
	// DroppedBits counts branch bits discarded with no position to
	// attribute them to (diagnostics).
	DroppedBits int
	// FaultCount counts malformed packets (all of Faults, plus any past
	// the retention cap).
	FaultCount int
	// Faults retains the first maxFaultRecords typed fault records.
	Faults []DecodeFault
	// SkippedPackets and SkippedBytes measure the spans discarded while
	// skipping to a synchronisation packet after a fault.
	SkippedPackets int
	SkippedBytes   uint64
}

type mode uint8

const (
	modeIdle mode = iota
	modeTemplate
	modeJIT
)

// maxFaultRecords bounds the retained fault list; FaultCount keeps
// counting past it.
const maxFaultRecords = 256

// DecodeStats is the uniform degradation-counter surface of a decoder.
type DecodeStats struct {
	Desyncs        int
	DroppedBits    int
	FaultCount     int
	SkippedPackets int
	SkippedBytes   uint64
}

// NewWalker creates a decoder for tr's packet vocabulary over snap.
func NewWalker(tr *Traits, snap *meta.Snapshot) *Walker {
	return &Walker{tr: tr, snap: snap, rangeStart: -1}
}

// Decode processes a whole item stream and returns the events. The
// returned slice aliases the walker's reused output buffer: it is valid
// until the next Decode/DecodeChunk/Flush call.
func (w *Walker) Decode(items []Item) []Event {
	w.DecodeChunk(items)
	w.flushRange()
	return w.deliver()
}

// DecodeChunk processes one chunk of an item stream and returns the events
// decoded so far. The walker keeps its state (mode, pending branch bits,
// pending JIT range) across calls, so feeding a stream in chunks of any
// size yields, concatenated with the final Flush, exactly the events
// Decode yields for the whole stream at once: already-emitted events are
// final and never revised. The returned slice aliases the reused output
// buffer (zero-alloc steady state, DESIGN.md §12): consume it before the
// next Decode/DecodeChunk/Flush call.
func (w *Walker) DecodeChunk(items []Item) []Event {
	w.out = w.out[:0]
	for i := range items {
		w.feed(&items[i])
	}
	return w.deliver()
}

// Flush terminates the stream: the pending JIT instruction range (if any)
// is emitted. Call once after the last DecodeChunk. The returned slice
// aliases the reused output buffer, like DecodeChunk's.
func (w *Walker) Flush() []Event {
	w.out = w.out[:0]
	w.flushRange()
	return w.deliver()
}

// deliver returns the batch's events and marks them delivered (the
// checkpoint quiescence signal).
func (w *Walker) deliver() []Event {
	w.undelivered = false
	return w.out
}

// Stats returns the walker's degradation counters.
func (w *Walker) Stats() DecodeStats {
	return DecodeStats{
		Desyncs:        w.Desyncs,
		DroppedBits:    w.DroppedBits,
		FaultCount:     w.FaultCount,
		SkippedPackets: w.SkippedPackets,
		SkippedBytes:   w.SkippedBytes,
	}
}

// FaultLog returns the retained typed fault records.
func (w *Walker) FaultLog() []DecodeFault { return w.Faults }

// feed processes one trace item, dispatching a packet by its role. The
// branch-length check happens before any bit consumption, so a hostile
// length field never drives the bit loop.
func (w *Walker) feed(it *Item) {
	if it.IsGap() {
		w.gap(it)
		return
	}
	p := &it.Packet
	if k, bad := w.tr.ClassifyPacket(p); bad {
		w.fault(k, p)
		return
	}
	r := &w.tr.Roles
	if w.skipSync {
		if p.Kind != r.Sync {
			// Discarded while seeking a synchronisation boundary after a
			// fault.
			w.SkippedPackets++
			w.SkippedBytes += uint64(p.WireLen)
			return
		}
		w.skipSync = false
	}
	switch p.Kind {
	case r.Sync:
		// Synchronisation point: safe to resume after a malformed packet.
		// Some sources' sync packets carry the full timestamp too.
		if w.tr.IsTime(p.Kind) {
			w.time(p.TSC)
		}
		return
	case r.Time:
		w.time(p.TSC)
		return
	case r.Enable:
		// The enable packet carries the resume IP: re-anchor there
		// (tracing often resumes mid-compiled-loop where no indirect
		// target would otherwise occur).
		w.emit(Event{Kind: EvEnable, TSC: w.tsc})
		w.anchor(p.IP)
	case r.Disable:
		w.flushRange()
		w.emit(Event{Kind: EvDisable, TSC: w.tsc})
		w.mode = modeIdle
		w.bits, w.nbits = 0, 0
	case r.Branches:
		w.tntBits(p.Bits, int(p.NBits))
	case r.Anchor:
		// FUP semantics: the IP is where execution currently is, and the
		// next indirect target — if the pairing packet follows — was
		// reached by runtime intervention (exception, OSR), not by an
		// indirect instruction. After a loss it anchors the branch bits
		// that follow.
		w.anchor(p.IP)
		w.armed = true
		return
	case r.Target:
		w.tip(p.IP, w.armed)
	}
	// Anything but time and sync packets breaks a pending anchor pairing.
	w.armed = false
}

// gap processes a data-loss episode. Loss is a resync point: the
// collector re-emits a preamble after a gap, so fault recovery stops too.
func (w *Walker) gap(it *Item) {
	start, end := it.GapStart(), it.GapEnd()
	if end < start {
		// Inverted loss marker: record the fault but keep the gap —
		// clamped, it still tells the upper layers bytes were lost.
		w.fault(FaultBadGap, &Packet{})
		end = start
	}
	w.flushRange()
	w.emit(Event{Kind: EvGap, LostBytes: it.LostBytes(), TSC: start, GapEnd: end})
	w.reset()
	w.skipSync = false
}

// time processes a timestamp update.
func (w *Walker) time(tsc uint64) {
	w.tsc = tsc
	w.emit(Event{Kind: EvTime, TSC: tsc})
}

// tntBits queues n packed branch bits (oldest in bit 0) and consumes as
// many as the current mode allows.
func (w *Walker) tntBits(bits uint64, n int) {
	for i := 0; i < n; i++ {
		if w.nbits >= 64 {
			// Overflow means severe desync; drop oldest.
			w.DroppedBits += w.nbits
			w.desync()
		}
		if bits>>uint(i)&1 == 1 {
			w.bits |= 1 << uint(w.nbits)
		}
		w.nbits++
	}
	w.drainBits()
}

// fault records a typed malformed-packet fault, abandons the walking state
// (whatever was pending can no longer be trusted) and skips forward to the
// next synchronisation boundary.
func (w *Walker) fault(kind FaultKind, p *Packet) {
	w.FaultCount++
	if len(w.Faults) < maxFaultRecords {
		w.Faults = append(w.Faults, DecodeFault{Kind: kind, TSC: w.tsc, Packet: *p})
	}
	w.SkippedBytes += uint64(p.WireLen)
	w.flushRange()
	w.emit(Event{Kind: EvFault})
	w.reset()
	w.skipSync = true
}

func (w *Walker) emit(e Event) {
	if e.TSC == 0 {
		e.TSC = w.tsc
	}
	w.out = append(w.out, e)
	w.undelivered = true
}

func (w *Walker) reset() {
	w.mode = modeIdle
	w.blob = nil
	w.rangeStart = -1
	w.bits, w.nbits = 0, 0
}

func (w *Walker) desync() {
	w.Desyncs++
	w.flushRange()
	w.emit(Event{Kind: EvDesync})
	w.reset()
}

func (w *Walker) takeBit() bool {
	b := w.bits&1 == 1
	w.bits >>= 1
	w.nbits--
	return b
}

// flushRange emits the pending JIT instruction range.
func (w *Walker) flushRange() {
	if w.rangeStart >= 0 && w.idx > w.rangeStart {
		w.emit(Event{Kind: EvJITRange, Blob: w.blob, First: int32(w.rangeStart), Last: int32(w.idx)})
	}
	w.rangeStart = -1
}

// anchor re-positions the walker at ip without consuming a transfer
// (FUP semantics: the IP is where execution currently is).
func (w *Walker) anchor(ip uint64) {
	w.flushRange()
	if w.snap.IsTemplate(ip) {
		if w.snap.Stubs.Classify(ip) != "" {
			w.mode = modeIdle
			return
		}
		if op, ok := w.snap.Templates.Lookup(ip); ok {
			w.mode = modeTemplate
			w.curOp = op
			w.drainBits()
			return
		}
		w.mode = modeIdle
		return
	}
	if blob := w.snap.BlobFor(ip); blob != nil {
		if i := blob.Code.IndexOf(ip); i >= 0 {
			w.mode = modeJIT
			w.blob = blob
			w.idx = i
			w.rangeStart = -1
			w.drainBits()
			return
		}
	}
	w.mode = modeIdle
}

// tip handles an indirect transfer: it first advances the walker to the
// pending indirect instruction (there must be exactly the executed linear
// path in between), then lands at the target. When the target completes a
// FUP-class pairing (async means an exception or OSR transfer), there is
// no indirect instruction to consume: control was ripped away by the
// runtime.
func (w *Walker) tip(target uint64, async bool) {
	if async {
		w.flushRange()
		w.land(target)
		return
	}
	if w.mode == modeJIT {
		// Walk up to the indirect instruction this target resolves.
		w.walk()
		if w.mode == modeJIT {
			if w.idx < len(w.blob.Code.Instrs) && w.blob.Code.Instrs[w.idx].Kind.IsIndirect() {
				// Execute the indirect instruction itself.
				w.extend()
				w.idx++
				w.flushRange()
			} else {
				// The walker is stuck mid-walk (e.g. at a conditional
				// with no bits): metadata/trace mismatch.
				w.desync()
			}
		}
	}
	w.land(target)
}

// land positions execution at a transfer target and classifies it.
func (w *Walker) land(target uint64) {
	if w.snap.IsTemplate(target) {
		w.flushRange()
		if w.snap.Stubs.Classify(target) != "" {
			w.mode = modeIdle
			w.emit(Event{Kind: EvStub})
			return
		}
		if op, ok := w.snap.Templates.Lookup(target); ok {
			w.mode = modeTemplate
			w.curOp = op
			w.emit(Event{Kind: EvTemplate, Op: op})
			return
		}
		w.mode = modeIdle
		return
	}
	if blob := w.snap.BlobFor(target); blob != nil {
		if i := blob.Code.IndexOf(target); i >= 0 {
			w.flushRange()
			w.mode = modeJIT
			w.blob = blob
			w.idx = i
			w.rangeStart = i
			w.walk()
			return
		}
	}
	w.desync()
}

// extend includes the current instruction in the pending range.
func (w *Walker) extend() {
	if w.rangeStart < 0 {
		w.rangeStart = w.idx
	}
}

// jumpTo transfers within/between blobs following a direct target.
func (w *Walker) jumpTo(target uint64) bool {
	w.idx++ // the transfer instruction itself executed
	w.flushRange()
	blob := w.blob
	if !blob.Code.Contains(target) {
		blob = w.snap.BlobFor(target)
	}
	if blob == nil {
		return false
	}
	i := blob.Code.IndexOf(target)
	if i < 0 {
		return false
	}
	w.blob = blob
	w.idx = i
	w.rangeStart = i
	return true
}

// drainBits consumes pending branch bits according to the current mode.
func (w *Walker) drainBits() {
	for w.nbits > 0 {
		switch w.mode {
		case modeTemplate:
			taken := w.takeBit()
			w.emit(Event{Kind: EvTemplateTNT, Op: w.curOp, Taken: taken})
		case modeJIT:
			before := w.nbits
			w.walk()
			if w.nbits == before {
				// walk() could not consume: waiting for an indirect target
				// while bits are pending would be a mismatch, but bits can
				// also simply be buffered ahead; stop here.
				return
			}
		default:
			// No position to attribute bits to (post-loss); drop them.
			w.DroppedBits += w.nbits
			w.bits, w.nbits = 0, 0
			return
		}
	}
}

// walk advances through the current blob while progress is possible without
// further packets.
func (w *Walker) walk() {
	for w.mode == modeJIT {
		if w.idx >= len(w.blob.Code.Instrs) {
			// Fell off the blob end: desync.
			w.desync()
			return
		}
		ins := &w.blob.Code.Instrs[w.idx]
		switch ins.Kind {
		case isa.Linear:
			w.extend()
			w.idx++
		case isa.Jump, isa.Call:
			w.extend()
			if !w.jumpTo(ins.Target) {
				w.desync()
				return
			}
		case isa.CondBranch:
			if w.nbits == 0 {
				return // need more branch bits
			}
			w.extend()
			taken := w.takeBit()
			if taken {
				if !w.jumpTo(ins.Target) {
					w.desync()
					return
				}
			} else {
				w.idx++
			}
		case isa.IndirectCall, isa.IndirectJump, isa.Ret:
			return // need an indirect target
		default:
			w.desync()
			return
		}
	}
}

// WalkerState is the walker's checkpointable state (DESIGN.md §11). It is
// only valid at a chunk boundary where every emitted event has been
// returned to the caller — DecodeChunk always delivers its output, so any
// point between chunks qualifies. The current blob is identified by its
// index in the snapshot's append-only export log (replayed identically on
// resume) with the entry address as a cross-check, never by pointer.
type WalkerState struct {
	Mode       uint8
	CurOp      uint8
	BlobExport int // index into snap.ExportedBlobs(), -1 = no blob
	BlobEntry  uint64
	Idx        int
	RangeStart int
	Bits       uint64
	NBits      int
	TSC        uint64
	FUPArmed   bool
	SkipPSB    bool

	Desyncs        int
	DroppedBits    int
	FaultCount     int
	Faults         []DecodeFault
	SkippedPackets int
	SkippedBytes   uint64
}

// ExportState snapshots the walker between chunks. It panics if called
// with undelivered output events: that is a checkpoint at a non-quiescent
// point, which the Session never does.
func (w *Walker) ExportState() WalkerState {
	if w.undelivered {
		panic("source: ExportState with pending output events")
	}
	st := WalkerState{
		Mode:       uint8(w.mode),
		CurOp:      uint8(w.curOp),
		BlobExport: -1,
		Idx:        w.idx,
		RangeStart: w.rangeStart,
		Bits:       w.bits,
		NBits:      w.nbits,
		TSC:        w.tsc,
		FUPArmed:   w.armed,
		SkipPSB:    w.skipSync,

		Desyncs:        w.Desyncs,
		DroppedBits:    w.DroppedBits,
		FaultCount:     w.FaultCount,
		Faults:         append([]DecodeFault(nil), w.Faults...),
		SkippedPackets: w.SkippedPackets,
		SkippedBytes:   w.SkippedBytes,
	}
	if w.blob != nil {
		st.BlobEntry = w.blob.EntryAddr()
		for i, b := range w.snap.ExportedBlobs() {
			if b == w.blob {
				st.BlobExport = i
				break
			}
		}
	}
	return st
}

// RestoreState rebuilds the walker from a checkpointed state against the
// restoring process's snapshot (whose export log must be a replay of the
// checkpointing process's — the archive resume path guarantees it).
func (w *Walker) RestoreState(st WalkerState) error {
	w.out = nil
	w.mode = mode(st.Mode)
	w.curOp = bytecode.Opcode(st.CurOp)
	w.idx = st.Idx
	w.rangeStart = st.RangeStart
	w.bits = st.Bits
	w.nbits = st.NBits
	w.tsc = st.TSC
	w.armed = st.FUPArmed
	w.skipSync = st.SkipPSB

	w.Desyncs = st.Desyncs
	w.DroppedBits = st.DroppedBits
	w.FaultCount = st.FaultCount
	w.Faults = append([]DecodeFault(nil), st.Faults...)
	w.SkippedPackets = st.SkippedPackets
	w.SkippedBytes = st.SkippedBytes

	w.blob = nil
	if st.BlobEntry != 0 || st.BlobExport >= 0 {
		w.blob = w.resolveBlob(st)
		if w.blob == nil {
			return fmt.Errorf("source: checkpoint references unknown blob (export %d, entry %#x)",
				st.BlobExport, st.BlobEntry)
		}
	}
	return nil
}

// resolveBlob maps a checkpointed blob identity back to a live pointer:
// export-log index first (exact, survives re-exports that shadow an entry
// address), entry-address lookup as the fallback.
func (w *Walker) resolveBlob(st WalkerState) *meta.CompiledMethod {
	if log := w.snap.ExportedBlobs(); st.BlobExport >= 0 && st.BlobExport < len(log) {
		if b := log[st.BlobExport]; b != nil && b.EntryAddr() == st.BlobEntry {
			return b
		}
	}
	return w.snap.BlobFor(st.BlobEntry)
}
