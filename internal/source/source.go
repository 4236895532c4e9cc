// Package source is the ISA-agnostic trace-source layer: the neutral
// packet/item/event vocabulary the reconstruction core consumes, the one
// collector that encodes the VM's branch events into packets, and the one
// decoder (the Walker) that turns packets plus the machine-code metadata
// snapshot back into the neutral event stream (EvTemplate, EvJITRange,
// EvGap, ...).
//
// A backend is pure data: a Traits value holding its packet vocabulary,
// a role table (which kind is the enable, disable, target, anchor,
// branch, time and sync packet) and a wire-size model. Intel PT
// (internal/pt) and RISC-V E-Trace (internal/etrace) are two such values,
// each registering itself. Everything above this layer — carving,
// stitching, tokenizing, reconstruction, recovery, archives, sessions —
// consults the same Traits for the little it needs to know (which kinds
// carry timestamps, which are sync boundaries, what validates).
package source

import (
	"fmt"
	"sort"
	"sync"

	"jportal/internal/meta"
)

// Kind identifies a trace packet type. The kind space is per source: kind
// 3 means FUP to Intel PT and something else to another backend. Traits
// carries the per-source interpretation.
type Kind uint8

// Packet is one decoded trace packet, in the neutral in-memory form every
// source decodes its wire format into: addresses are absolute (a source's
// differential or suffix compression shows up only in WireLen), branch
// bits are packed oldest-first, and timestamps are absolute cycle counts.
//
// The three payload words come first and the byte fields after them, so a
// Packet is 32 bytes with the gap flag in what would otherwise be padding
// (TestRecordSizes): every item is copied several times between archive
// read and tokenize.
type Packet struct {
	// IP is the address payload of address-bearing packets.
	IP uint64
	// Bits holds packed branch bits, oldest in bit 0; NBits of them are
	// valid.
	Bits uint64
	// TSC is the timestamp payload of time-bearing packets.
	TSC  uint64
	Kind Kind
	// NBits counts the valid bits of Bits.
	NBits uint8
	// WireLen is the encoded size in bytes (set by the encoder; used for
	// buffer accounting and trace-size measurements).
	WireLen uint8
	// Gap marks the Item holding this Packet as a loss marker, whose
	// three payload words then carry the loss episode (see Item). Build
	// gap items with GapItem and test them with Item.IsGap.
	Gap bool
}

// TNTBit returns bit i (0 = oldest) of a branch-bits packet.
func (p *Packet) TNTBit(i int) bool { return (p.Bits>>uint(i))&1 == 1 }

// Item is one element of an exported trace: either a packet or a gap marker
// recording a data-loss episode (the model of a perf_record_aux record with
// the truncated flag, paper §4). A gap has no packet, so its LostBytes,
// GapStart and GapEnd share the packet's IP, Bits and TSC words, and the
// whole item is one 32-byte Packet.
type Item struct {
	// Packet is the packet when !IsGap, and the storage of the loss
	// episode when IsGap.
	Packet Packet
}

// GapItem returns the loss marker for lost bytes dropped over [start, end].
func GapItem(lost, start, end uint64) Item {
	return Item{Packet{IP: lost, Bits: start, TSC: end, Gap: true}}
}

// IsGap reports whether the item is a loss marker.
func (it *Item) IsGap() bool { return it.Packet.Gap }

// LostBytes returns the bytes a gap item's loss episode dropped.
func (it *Item) LostBytes() uint64 { return it.Packet.IP }

// GapStart returns the start time of a gap item's loss episode.
func (it *Item) GapStart() uint64 { return it.Packet.Bits }

// GapEnd returns the end time of a gap item's loss episode.
func (it *Item) GapEnd() uint64 { return it.Packet.TSC }

// PayloadBytes returns the wire size of the packets in items (gaps
// excluded).
func PayloadBytes(items []Item) uint64 {
	var n uint64
	for i := range items {
		if !items[i].IsGap() {
			n += uint64(items[i].Packet.WireLen)
		}
	}
	return n
}

// CoreTrace is everything exported from one core's trace buffer, in order.
type CoreTrace struct {
	Core  int
	Items []Item
}

// Bytes returns the exported payload size in bytes (gaps excluded).
func (t *CoreTrace) Bytes() uint64 { return PayloadBytes(t.Items) }

// LostBytes returns the total bytes dropped in loss episodes.
func (t *CoreTrace) LostBytes() uint64 {
	var n uint64
	for i := range t.Items {
		if t.Items[i].IsGap() {
			n += t.Items[i].LostBytes()
		}
	}
	return n
}

// CollectorConfig sets the collection parameters every source's collector
// shares (the knobs the paper's evaluation varies). A source interprets
// the periods in its own packet vocabulary: TSCPeriodCycles is the
// interval between timestamp packets (whatever the source calls them) and
// PSBPeriodBytes the interval between synchronisation packets.
type CollectorConfig struct {
	// BufBytes is the per-core trace buffer capacity (the paper uses 64MB,
	// 128MB and 256MB).
	BufBytes uint64
	// DrainBytesPerKCycle is the export bandwidth: how many buffered bytes
	// the exporter writes out per thousand cycles. When the generation
	// rate exceeds this, the buffer fills and data is lost.
	DrainBytesPerKCycle uint64
	// TSCPeriodCycles is the interval between timestamp packets.
	TSCPeriodCycles uint64
	// PSBPeriodBytes is the interval between synchronisation packets.
	PSBPeriodBytes uint64
	// ResumePercent is the loss-episode hysteresis: once the buffer
	// overflows, packets keep dropping until the exporter drains it below
	// this percentage of capacity (perf reads the AUX area in chunks, so
	// real losses span whole chunks). 100 disables the hysteresis.
	ResumePercent int
}

// DefaultCollectorConfig mirrors the paper's default setting (128MB
// per-core buffer).
func DefaultCollectorConfig() CollectorConfig {
	return CollectorConfig{
		BufBytes:            128 << 20,
		DrainBytesPerKCycle: 150,
		TSCPeriodCycles:     2048,
		PSBPeriodBytes:      4096,
		ResumePercent:       85,
	}
}

// Validate rejects configurations a collector cannot meaningfully run
// with. A zero buffer loses every packet, a zero drain rate never exports,
// and zero periods would emit a housekeeping packet before every payload
// packet (an infinite regress in the real hardware's terms).
func (c CollectorConfig) Validate() error {
	if c.BufBytes == 0 {
		return fmt.Errorf("source: BufBytes must be positive (a zero-capacity buffer drops all trace data)")
	}
	if c.DrainBytesPerKCycle == 0 {
		return fmt.Errorf("source: DrainBytesPerKCycle must be positive (a zero export rate never drains the buffer)")
	}
	if c.TSCPeriodCycles == 0 {
		return fmt.Errorf("source: TSCPeriodCycles must be positive")
	}
	if c.PSBPeriodBytes == 0 {
		return fmt.Errorf("source: PSBPeriodBytes must be positive")
	}
	if c.ResumePercent < 1 || c.ResumePercent > 100 {
		return fmt.Errorf("source: ResumePercent must be in [1,100], got %d", c.ResumePercent)
	}
	return nil
}

// Decoder is the decode side of a source: it consumes the source's packet
// stream (typically one thread's stitched stream) plus the metadata
// snapshot and yields the neutral event stream. Its one implementation is
// the Walker, which dispatches packets by their role.
type Decoder interface {
	// Decode processes a whole item stream and returns the events. The
	// returned slice aliases the decoder's reused output buffer: it is
	// valid until the next Decode/DecodeChunk/Flush call.
	Decode(items []Item) []Event
	// DecodeChunk processes one chunk of an item stream. The decoder keeps
	// its walking state across calls, so feeding a stream in chunks of any
	// size yields, concatenated with the final Flush, exactly the events
	// Decode yields for the whole stream at once.
	DecodeChunk(items []Item) []Event
	// Flush terminates the stream: the pending JIT instruction range (if
	// any) is emitted. Call once after the last DecodeChunk.
	Flush() []Event
	// Stats returns the decoder's degradation counters.
	Stats() DecodeStats
	// FaultLog returns the retained typed fault records.
	FaultLog() []DecodeFault
	// ExportState snapshots the decoder's walking state between chunks
	// (checkpointing); RestoreState rebuilds it against the restoring
	// process's snapshot.
	ExportState() WalkerState
	RestoreState(WalkerState) error
}

// Source is one registered trace backend. Its one implementation is
// *Traits: the collector and the decoder it builds are the shared ones,
// parameterised by the backend's Traits.
type Source interface {
	// ID is the stable archive identity (e.g. "intel-pt", "riscv-etrace").
	ID() string
	// Traits describes the packet vocabulary to the neutral layers.
	Traits() *Traits
	// NewCollector creates the collector for ncores cores.
	NewCollector(cfg CollectorConfig, ncores int) *Collector
	// NewDecoder creates a decoder over the given metadata snapshot.
	NewDecoder(snap *meta.Snapshot) Decoder
}

// ID returns the source's registry name.
func (t *Traits) ID() string { return t.Name }

// Traits returns t itself: a backend is its Traits.
func (t *Traits) Traits() *Traits { return t }

// NewCollector creates a collector for ncores cores encoding in t's
// vocabulary.
func (t *Traits) NewCollector(cfg CollectorConfig, ncores int) *Collector {
	return NewCollector(t, cfg, ncores)
}

// NewDecoder creates a decoder for t's vocabulary over snap.
func (t *Traits) NewDecoder(snap *meta.Snapshot) Decoder { return NewWalker(t, snap) }

// DefaultID is the source archives without a source field default to: the
// Intel PT reference implementation predates the source layer, so every
// legacy archive is a PT archive.
const DefaultID = "intel-pt"

// CanonicalID is the one spelling of a source ID: "" — the shorthand
// archive headers, HELLO frames and flags use for the default backend —
// becomes DefaultID; every other ID is returned as is.
func CanonicalID(id string) string {
	if id == "" {
		return DefaultID
	}
	return id
}

var (
	regMu    sync.RWMutex
	registry = map[string]Source{}
)

// Register adds a source to the registry; sources register themselves in
// init(). Registering two sources under one ID is a programming error.
func Register(s Source) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.ID()]; dup {
		panic("source: duplicate registration of " + s.ID())
	}
	registry[s.ID()] = s
}

// Lookup resolves a source ID ("" means DefaultID). The error names the
// registered sources, so a missing import surfaces clearly.
func Lookup(id string) (Source, error) {
	id = CanonicalID(id)
	regMu.RLock()
	defer regMu.RUnlock()
	if s, ok := registry[id]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("source: unknown trace source %q (registered: %v)", id, registeredLocked())
}

// Default returns the reference source. It panics if the PT backend has
// not been linked in — import jportal/internal/pt.
func Default() Source {
	s, err := Lookup(DefaultID)
	if err != nil {
		panic(err)
	}
	return s
}

// Registered lists the registered source IDs, sorted.
func Registered() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return registeredLocked()
}

func registeredLocked() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
