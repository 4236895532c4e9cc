package source

import (
	"fmt"

	"jportal/internal/bytecode"
	"jportal/internal/meta"
)

// EventKind classifies decoder output events. The event stream is the
// neutral boundary between a source's decoder and the bytecode-level
// layers (package core): every backend decodes its packets into exactly
// these events.
type EventKind uint8

const (
	// EvTemplate is a dispatch into an interpreter opcode template.
	EvTemplate EventKind = iota
	// EvTemplateTNT is a conditional outcome inside the current branch
	// template (interpreted mode).
	EvTemplateTNT
	// EvJITRange reports that native instructions [First, Last) of Blob
	// executed.
	EvJITRange
	// EvStub is a transfer into a runtime adapter stub. The reconstruction
	// treats it like EvEnable: it ends any pending branch pairing.
	EvStub
	// EvGap is a data-loss episode.
	EvGap
	// EvTime is a timestamp update.
	EvTime
	// EvEnable and EvDisable delimit tracing.
	EvEnable
	EvDisable
	// EvDesync reports that the walker lost sync (packet/code mismatch,
	// typically following loss or imprecise metadata) and re-anchored.
	EvDesync
	// EvFault reports a malformed packet: the decoder recorded a typed
	// DecodeFault, discarded its walking state and is skipping to the next
	// synchronisation packet (graceful degradation, DESIGN.md §10).
	EvFault
)

func (k EventKind) String() string {
	switch k {
	case EvTemplate:
		return "template"
	case EvTemplateTNT:
		return "template-tnt"
	case EvJITRange:
		return "jit-range"
	case EvStub:
		return "stub"
	case EvGap:
		return "gap"
	case EvTime:
		return "time"
	case EvEnable:
		return "enable"
	case EvDisable:
		return "disable"
	case EvDesync:
		return "desync"
	case EvFault:
		return "fault"
	}
	return fmt.Sprintf("ev#%d", uint8(k))
}

// FaultKind classifies malformed-packet faults.
type FaultKind uint8

const (
	// FaultUnknownPacket is a packet whose kind byte names no packet type
	// of its source (truncated or corrupted record).
	FaultUnknownPacket FaultKind = iota
	// FaultBadTNTLen is a branch-bits packet whose length field exceeds the
	// source's MaxTNTBits — a hostile length that must not drive allocation
	// or bit consumption.
	FaultBadTNTLen
	// FaultBadGap is a loss marker whose end precedes its start.
	FaultBadGap
)

func (k FaultKind) String() string {
	switch k {
	case FaultUnknownPacket:
		return "unknown-packet"
	case FaultBadTNTLen:
		return "bad-tnt-len"
	case FaultBadGap:
		return "bad-gap"
	}
	return fmt.Sprintf("fault#%d", uint8(k))
}

// DecodeFault is the typed record of one malformed packet: instead of
// aborting the core's decode, the decoder logs it, drops its walking state
// and resynchronizes at the next synchronisation packet.
type DecodeFault struct {
	Kind FaultKind
	// TSC is the stream time when the fault was seen (best effort).
	TSC uint64
	// Packet is a copy of the offending packet (zero for gap faults).
	Packet Packet
}

func (f *DecodeFault) Error() string {
	return fmt.Sprintf("source: %s at tsc %d", f.Kind, f.TSC)
}

// Event is one decoded native-level event. Pointer and words first, then
// the int32 bounds and the byte fields, so an Event is 48 bytes
// (TestRecordSizes). Blob stays a pointer: a stream tokenizer built from
// the program alone has no snapshot to resolve a blob index against.
type Event struct {
	// Blob plus [First, Last) identify executed instructions for
	// EvJITRange.
	Blob *meta.CompiledMethod
	// TSC is the current timestamp: valid on EvTime, the loss episode's
	// start on EvGap, best-effort elsewhere.
	TSC uint64
	// LostBytes and GapEnd complete the loss episode of EvGap.
	LostBytes   uint64
	GapEnd      uint64
	First, Last int32
	Kind        EventKind
	// Op is the dispatched opcode for EvTemplate/EvTemplateTNT.
	Op bytecode.Opcode
	// Taken is the branch outcome for EvTemplateTNT.
	Taken bool
}
