// Package pt is the "intel-pt" trace source: a software model of the
// Intel Processor Trace packet protocol (paper §2), expressed as a
// source.Traits value. It names the packet kinds JPortal consumes (PGE,
// PGD, TNT, TIP, FUP, TSC, PSB), says which role each plays, and gives
// PT's wire-size model: TNT bits packed up to 6 per 2-byte short packet
// and up to 47 per 8-byte long one, TIP/FUP addresses suffix-compressed
// against the last IP in 2-byte steps (2, 4, 6 or 8 bytes), an 8-byte TSC
// and a 16-byte PSB that carries no timestamp, so a resync after loss is
// PSB+TSC.
//
// The collector (per-core ring buffers whose bounded export bandwidth
// loses data exactly the way the paper describes, 22-54% under small
// buffers) and the decoder (the libipt-style walk) are the shared ones in
// internal/source. The paper's algorithms never touch silicon; they
// consume packets. This model reproduces the packet-level properties
// those algorithms must cope with, which is what makes the reproduction
// meaningful on machines without PT hardware.
package pt

import "jportal/internal/source"

// Kind identifies a trace packet type.
type Kind = source.Kind

const (
	// KPGE marks packet generation enable: tracing begins at IP.
	KPGE Kind = iota
	// KPGD marks packet generation disable: tracing ends at IP.
	KPGD
	// KTIP carries the target of an indirect branch (call*, jmp*, ret).
	KTIP
	// KFUP carries the source IP of an asynchronous event or a resync
	// point after data loss.
	KFUP
	// KTNT carries 1..47 taken/not-taken bits, oldest bit first.
	KTNT
	// KTSC carries a timestamp.
	KTSC
	// KPSB is a synchronisation boundary.
	KPSB
)

// MaxTNTBits is the capacity of a long TNT packet.
const MaxTNTBits = 47

// traits is the PT backend.
var traits = &source.Traits{
	Name:      source.DefaultID,
	MaxKind:   KPSB,
	KindNames: []string{"PGE", "PGD", "TIP", "FUP", "TNT", "TSC", "PSB"},
	Roles: source.Roles{
		Enable: KPGE, Disable: KPGD, Target: KTIP, Anchor: KFUP,
		Branches: KTNT, Time: KTSC, Sync: KPSB,
	},
	TimeMask:   1 << KTSC,
	MaxTNTBits: MaxTNTBits,
	Wire: source.WireModel{
		AddrGranule: 2,
		BranchLen: func(n uint8) uint8 {
			if n <= 6 {
				return 1 + 1 // short TNT
			}
			return 8 // long TNT
		},
		TimeLen: 8,
		SyncLen: 16,
	},
}

// Traits returns the PT backend's Traits.
func Traits() *source.Traits { return traits }

func init() { source.Register(traits) }
