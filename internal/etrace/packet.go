// Package etrace is the "riscv-etrace" trace source: a RISC-V
// E-Trace-style packet vocabulary expressed as a source.Traits value. It
// is the second backend behind the shared collector and decoder in
// internal/source, proving the neutral layers — stitching, decoding,
// reconstruction, recovery, archives — are ISA-agnostic.
//
// The model follows the E-Trace (Efficient Trace for RISC-V) encoder's
// shape rather than Intel PT's:
//
//   - Branch outcomes pack into variable-length branch-map packets of up to
//     31 branches (PT's TNT carries up to 47), sized 1 header byte plus one
//     payload byte per 8 branches.
//   - Uninferable (indirect) targets are reported differentially: the wire
//     carries only the bytes in which the address differs from the last one
//     reported, at byte granularity (PT's suffix compression snaps to
//     2/4/6/8 bytes). The neutral Packet keeps the absolute address.
//   - Periodic synchronisation packets carry the full timestamp and reset
//     the address compression, so a decoder (or a chunk boundary) can
//     resynchronise without history, and one SYNC is the whole resync
//     preamble after a loss.
//
// Everything else — bounded per-core ring, paced exporter, loss episodes
// with hysteresis, the decoder's walk — is shared with internal/pt, so the
// two backends differ only where the ISAs do: packet vocabulary and
// wire-size model.
package etrace

import "jportal/internal/source"

// ID is this source's registry name.
const ID = "riscv-etrace"

// Kind is this source's packet-kind space.
type Kind = source.Kind

// Packet kinds. The numbering is local to this source; only Traits gives
// them meaning.
const (
	// KTime carries a timestamp update (E-Trace "time" packet).
	KTime Kind = iota
	// KSync is the periodic synchronisation packet: full timestamp,
	// compression reset, a safe resume point after a malformed packet.
	KSync
	// KStart reports tracing turning on, with the full start address
	// (format 3 "start of tracing" in E-Trace terms).
	KStart
	// KStop reports tracing turning off.
	KStop
	// KBranch is the variable-length branch map: up to MaxBranchBits
	// packed taken/not-taken outcomes.
	KBranch
	// KAddr reports an uninferable (indirect) jump target,
	// differentially compressed on the wire.
	KAddr
	// KTrap reports the source address of a trap or other asynchronous
	// transfer; the next KAddr is its target (the pairing PT expresses
	// as FUP+TIP).
	KTrap
)

// MaxBranchBits is the branch-map capacity: E-Trace packs at most 31
// branches per packet.
const MaxBranchBits = 31

// traits is the E-Trace backend.
var traits = &source.Traits{
	Name:      ID,
	MaxKind:   KTrap,
	KindNames: []string{"TIME", "SYNC", "START", "STOP", "BMAP", "ADDR", "TRAP"},
	Roles: source.Roles{
		Enable: KStart, Disable: KStop, Target: KAddr, Anchor: KTrap,
		Branches: KBranch, Time: KTime, Sync: KSync,
	},
	// Sync packets carry the full timestamp, so they are time-bearing too.
	TimeMask:   1<<KTime | 1<<KSync,
	MaxTNTBits: MaxBranchBits,
	Wire: source.WireModel{
		AddrGranule: 1,
		BranchLen:   func(n uint8) uint8 { return 1 + (n+7)/8 },
		// A (compressed) full-width timestamp report.
		TimeLen: 6,
		// Header, full timestamp and context fields.
		SyncLen: 14,
	},
}

// Traits returns the E-Trace backend's Traits.
func Traits() *source.Traits { return traits }

func init() { source.Register(traits) }
