package source

import (
	"errors"
	"fmt"
)

// Traits is a trace backend, as pure data: its packet vocabulary (which
// kinds exist and what each is called), its role table (which kind plays
// each part the collector and the decoder know about), which kinds carry
// timestamps, and its wire-size model. The one Collector and the one
// decoder (Walker) read everything source-specific from here, so two
// backends differ only in their Traits values. *Traits is the Source the
// registry hands out.
type Traits struct {
	// Name is the source's registry ID ("intel-pt", "riscv-etrace").
	Name string
	// MaxKind is the highest valid packet kind.
	MaxKind Kind
	// KindNames names each kind for diagnostics, indexed by Kind.
	KindNames []string
	// Roles is the role table.
	Roles Roles
	// TimeMask marks kinds whose TSC field carries a timestamp: always
	// Roles.Time, and Roles.Sync too when the source's sync packet carries
	// the full timestamp. That one bit is every behavioural difference
	// between the built-in backends: the resync preamble after a loss
	// (PSB+TSC versus one SYNC), whether a periodic sync restarts the time
	// period, and whether decoding a sync packet updates the stream time.
	TimeMask uint64
	// MaxTNTBits is the branch-packet capacity. It also caps NBits at
	// validation: a hostile length field must never drive downstream loops
	// or allocation.
	MaxTNTBits uint8
	// Wire is the wire-size model.
	Wire WireModel
}

// Roles is a source's role table: the kind of each packet the collector
// emits and the decoder dispatches on.
type Roles struct {
	// Enable and Disable delimit tracing and carry the address where it
	// starts or stops (PT TIP.PGE/TIP.PGD, E-Trace START/STOP).
	Enable, Disable Kind
	// Target carries the target of an indirect transfer (TIP, ADDR).
	Target Kind
	// Anchor carries the address of an asynchronous transfer's source, or
	// of the resume point after a loss; it arms the decoder so the next
	// Target is taken as that transfer's destination (FUP, TRAP).
	Anchor Kind
	// Branches carries packed conditional-branch outcomes (TNT, BMAP).
	Branches Kind
	// Time carries a timestamp (TSC, TIME).
	Time Kind
	// Sync is the periodic synchronisation packet (PSB, SYNC): it resets
	// address compression, the decoder may resume after a fault there, and
	// chunk cuts are placed just before one.
	Sync Kind
}

// WireModel is a source's wire-size model: what each packet costs in the
// trace buffer. Packets keep absolute addresses in memory; compression
// shows up only in WireLen.
type WireModel struct {
	// AddrGranule is the address-compression granule in bytes. An
	// address-bearing packet is one header byte plus the low-order bytes
	// in which the address differs from the last one reported, rounded up
	// to a multiple of the granule (at least one granule). The first
	// address after a sync or a loss is sent in full, 8 bytes.
	AddrGranule uint8
	// BranchLen is the size of a branch packet carrying n bits, 1 <= n <=
	// MaxTNTBits.
	BranchLen func(n uint8) uint8
	// TimeLen and SyncLen are the sizes of the time and sync packets.
	TimeLen, SyncLen uint8
}

// IsTime reports whether kind k carries a timestamp payload.
func (t *Traits) IsTime(k Kind) bool { return k < 64 && t.TimeMask>>k&1 == 1 }

// IsSync reports whether kind k is a synchronisation boundary.
func (t *Traits) IsSync(k Kind) bool { return k == t.Roles.Sync }

// IsTNT reports whether kind k carries packed branch bits.
func (t *Traits) IsTNT(k Kind) bool { return k == t.Roles.Branches }

// isAddr reports whether kind k carries an address (and so is subject to
// address compression).
func (t *Traits) isAddr(k Kind) bool {
	r := &t.Roles
	return k == r.Enable || k == r.Disable || k == r.Target || k == r.Anchor
}

// ErrMalformed tags wire records whose decoded fields fail validation —
// hostile lengths and impossible gaps are rejected at the trust boundary
// instead of reaching the decoder.
var ErrMalformed = errors.New("source: malformed record")

// ValidateItem rejects items whose fields no well-formed encoder of this
// source produces: an unknown packet kind, a branch-bits length beyond
// MaxTNTBits, or a loss gap that ends before it starts.
func (t *Traits) ValidateItem(it *Item) error {
	if it.IsGap() {
		if it.GapEnd() < it.GapStart() {
			return fmt.Errorf("%w: gap end %d before start %d", ErrMalformed, it.GapEnd(), it.GapStart())
		}
		return nil
	}
	p := &it.Packet
	if p.Kind > t.MaxKind {
		return fmt.Errorf("%w: unknown packet kind %#x", ErrMalformed, uint8(p.Kind))
	}
	if t.IsTNT(p.Kind) && p.NBits > t.MaxTNTBits {
		return fmt.Errorf("%w: TNT length %d exceeds %d", ErrMalformed, p.NBits, t.MaxTNTBits)
	}
	return nil
}

// ClassifyPacket is the decoder-side twin of ValidateItem: it reports
// whether a packet is malformed and which FaultKind describes it, without
// allocating an error. Decoders call it per packet before dispatching.
func (t *Traits) ClassifyPacket(p *Packet) (FaultKind, bool) {
	if p.Kind > t.MaxKind {
		return FaultUnknownPacket, true
	}
	if t.IsTNT(p.Kind) && p.NBits > t.MaxTNTBits {
		return FaultBadTNTLen, true
	}
	return 0, false
}

// SkewTime is the fault injector's clock-skew hook: it offsets the
// timestamp of time-bearing packets, leaving every other kind untouched
// (the way an unsynchronised per-core clock skews everything that core
// stamps).
func (t *Traits) SkewTime(p *Packet, skew uint64) {
	if t.IsTime(p.Kind) {
		p.TSC += skew
	}
}

// TruncatedKind is the fault injector's truncation hook: the kind value a
// record cut short on the wire decodes to. It is invalid for every source
// (MaxKind is always below it), so validation catches it downstream.
func (t *Traits) TruncatedKind() Kind { return ^Kind(0) }

// KindString names a kind for diagnostics.
func (t *Traits) KindString(k Kind) string {
	if int(k) < len(t.KindNames) && t.KindNames[k] != "" {
		return t.KindNames[k]
	}
	return fmt.Sprintf("pkt#%d", uint8(k))
}
