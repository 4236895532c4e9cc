// Package fault is the chaos half of the robustness story (DESIGN.md §10):
// a deterministic, seeded fault injector that corrupts the online phase's
// outputs — PT packet streams, sideband records, and the JIT metadata
// snapshot — plus the quarantine ledger the hardened consume side reports
// into. Together they turn "the pipeline survived hostile input" from an
// anecdote into a measured coverage-vs-fault-rate curve (jportal chaos).
//
// Determinism contract: for a fixed Matrix (seed included) the injector
// corrupts exactly the same items regardless of call interleaving across
// cores, because every decision draws from a per-core RNG stream derived
// from the seed — feeding core 3 before core 0, or in different chunk
// sizes, changes nothing. That is what makes the chaos smoke in ci.sh
// byte-reproducible.
package fault

import (
	"jportal/internal/faultrng"
	"jportal/internal/meta"
	"jportal/internal/metrics"
	"jportal/internal/source"
	"jportal/internal/vm"
)

// Class identifies one injected fault kind. Every class is observable end
// to end: injection increments a "fault_injected_<class>" counter, and the
// hardened pipeline quarantines its damage under a typed Reason.
type Class uint8

const (
	// ClassBitFlip flips one bit in a packet payload (IP, TNT bits, NBits
	// or TSC).
	ClassBitFlip Class = iota
	// ClassTruncate destroys a packet's kind byte, modelling a record cut
	// short on the wire.
	ClassTruncate
	// ClassChunkDrop silently discards a run of items with no loss marker
	// (unlike perf_record_aux loss, which the collector reports as a gap).
	ClassChunkDrop
	// ClassChunkDup delivers a run of items twice.
	ClassChunkDup
	// ClassSidebandTear mangles a scheduler switch record the way a
	// half-written wire record decodes: its timestamp reads as garbage
	// (zero), so the consumer sees it as violently out of order.
	ClassSidebandTear
	// ClassSidebandReorder swaps adjacent switch records, violating the
	// per-core time-monotonicity the stitcher relies on.
	ClassSidebandReorder
	// ClassStaleJIT removes a compiled method's metadata entirely or
	// replaces its debug records with a stale (PC-shifted) version.
	ClassStaleJIT
	// ClassClockSkew offsets one core's clock by a constant — PT packets
	// and the sideband records captured on that core alike, the way an
	// unsynchronised TSC skews everything that core stamps. Cross-core
	// window ordering scrambles, so a migrating thread's stitched stream
	// goes backwards in time at core boundaries.
	ClassClockSkew

	numClasses
)

// Slug returns the class's stable snake_case name (metrics counter suffix).
func (c Class) Slug() string {
	switch c {
	case ClassBitFlip:
		return "bit_flip"
	case ClassTruncate:
		return "truncate"
	case ClassChunkDrop:
		return "chunk_drop"
	case ClassChunkDup:
		return "chunk_dup"
	case ClassSidebandTear:
		return "sideband_tear"
	case ClassSidebandReorder:
		return "sideband_reorder"
	case ClassStaleJIT:
		return "stale_jit"
	case ClassClockSkew:
		return "clock_skew"
	}
	return "unknown"
}

func (c Class) String() string { return c.Slug() }

// Classes lists every fault class in declaration order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// InjectCounterName is the metrics counter a class increments on injection.
func InjectCounterName(c Class) string { return "fault_injected_" + c.Slug() }

// Matrix configures the injector: one probability (or magnitude) per fault
// class, plus the seed that makes the whole run reproducible.
type Matrix struct {
	Seed uint64

	// Per-packet probabilities.
	BitFlip  float64
	Truncate float64
	// Per-run-of-items probabilities (runs of chunkItems items).
	ChunkDrop float64
	ChunkDup  float64
	// Per-sideband-record probabilities.
	SidebandTear    float64
	SidebandReorder float64
	// Per-compiled-method probability of stale or missing metadata.
	StaleJIT float64
	// ClockSkewMax bounds the constant per-core TSC offset (0 disables).
	ClockSkewMax uint64
}

// DefaultMatrix is the moderate mix the chaos benchmark and CI smoke use.
func DefaultMatrix(seed uint64) Matrix {
	return Matrix{
		Seed:            seed,
		BitFlip:         0.01,
		Truncate:        0.005,
		ChunkDrop:       0.01,
		ChunkDup:        0.005,
		SidebandTear:    0.01,
		SidebandReorder: 0.005,
		StaleJIT:        0.05,
		ClockSkewMax:    512,
	}
}

// Scale multiplies every probability (and the skew bound) by f, clamping
// probabilities to 1. Scale(0) is the identity matrix: no faults.
func (m Matrix) Scale(f float64) Matrix {
	m.BitFlip = faultrng.ScaleProb(m.BitFlip, f)
	m.Truncate = faultrng.ScaleProb(m.Truncate, f)
	m.ChunkDrop = faultrng.ScaleProb(m.ChunkDrop, f)
	m.ChunkDup = faultrng.ScaleProb(m.ChunkDup, f)
	m.SidebandTear = faultrng.ScaleProb(m.SidebandTear, f)
	m.SidebandReorder = faultrng.ScaleProb(m.SidebandReorder, f)
	m.StaleJIT = faultrng.ScaleProb(m.StaleJIT, f)
	m.ClockSkewMax = uint64(float64(m.ClockSkewMax) * f)
	return m
}

// active reports whether any trace-stream fault can fire.
func (m *Matrix) traceActive() bool {
	return m.BitFlip > 0 || m.Truncate > 0 || m.ChunkDrop > 0 || m.ChunkDup > 0 || m.ClockSkewMax > 0
}

func (m *Matrix) sidebandActive() bool {
	return m.SidebandTear > 0 || m.SidebandReorder > 0 || m.ClockSkewMax > 0
}

// chunkItems is the run length chunk-level faults (drop/dup) operate on.
// It matches the collector's default sink flush granularity.
const chunkItems = 256

// Injector applies a Matrix to the online phase's outputs. One Injector is
// one chaos run: its per-core RNG streams advance as items are fed, so
// reusing it for a second run would place faults differently — build a new
// one per run (cheap).
type Injector struct {
	m Matrix
	// tr is the trace source's packet vocabulary: corruption that depends
	// on packet semantics (clock skew targets time-bearing kinds,
	// truncation produces a kind invalid for the source) goes through its
	// hooks, so the injector damages any backend's stream, not just PT's.
	tr  *source.Traits
	reg *metrics.Registry

	cores    map[int]*faultrng.Stream
	skews    map[int]uint64
	sideband faultrng.Stream
	counts   [numClasses]uint64
}

// NewInjector creates an injector for the given matrix, corrupting streams
// of the source described by tr, and mirroring injection counters into reg
// (nil is allowed and drops them).
func NewInjector(m Matrix, tr *source.Traits, reg *metrics.Registry) *Injector {
	in := &Injector{m: m, tr: tr, reg: reg, cores: make(map[int]*faultrng.Stream), skews: make(map[int]uint64)}
	in.sideband = faultrng.New(m.Seed ^ 0x5b3cd1a9e4f7c261)
	return in
}

// Matrix returns the injector's configuration.
func (in *Injector) Matrix() Matrix { return in.m }

func (in *Injector) count(c Class) {
	in.counts[c]++
	in.reg.Add(InjectCounterName(c), 1)
}

// Counts returns injected-fault totals per class slug, for the report.
func (in *Injector) Counts() map[string]uint64 {
	out := make(map[string]uint64)
	for c := Class(0); c < numClasses; c++ {
		if in.counts[c] > 0 {
			out[c.Slug()] = in.counts[c]
		}
	}
	return out
}

// coreRNG returns core's persistent RNG stream (derived from the seed, so
// streams are independent of feeding order across cores).
func (in *Injector) coreRNG(core int) *faultrng.Stream {
	if r, ok := in.cores[core]; ok {
		return r
	}
	r := faultrng.Derive(in.m.Seed ^ (uint64(core+1) * 0x9e3779b97f4a7c15))
	in.cores[core] = &r
	return &r
}

// skew returns core's constant clock offset — a pure function of the seed
// and core number, so it is consistent across every chunk of that core.
func (in *Injector) skew(core int) uint64 {
	if in.m.ClockSkewMax == 0 {
		return 0
	}
	if s, ok := in.skews[core]; ok {
		return s
	}
	s := faultrng.New(in.m.Seed ^ 0xc2b2ae3d27d4eb4f ^ uint64(core+1))
	v := s.Next() % (in.m.ClockSkewMax + 1)
	in.skews[core] = v
	if v > 0 {
		in.count(ClassClockSkew)
	}
	return v
}

// Items applies the trace-stream fault classes to one chunk of core's
// exported items and returns the corrupted chunk. The input is never
// mutated; when no trace fault class is active the input slice is returned
// unchanged (the rate-0 identity the golden equivalence tests rely on).
func (in *Injector) Items(core int, items []source.Item) []source.Item {
	if !in.m.traceActive() || len(items) == 0 {
		return items
	}
	rng := in.coreRNG(core)
	skew := in.skew(core)
	out := make([]source.Item, 0, len(items))
	for off := 0; off < len(items); off += chunkItems {
		end := off + chunkItems
		if end > len(items) {
			end = len(items)
		}
		run := items[off:end]
		if rng.Chance(in.m.ChunkDrop) {
			// Silent loss: no gap marker, the decoder must notice on its
			// own (resync or desync).
			in.count(ClassChunkDrop)
			continue
		}
		dup := rng.Chance(in.m.ChunkDup)
		if dup {
			in.count(ClassChunkDup)
		}
		for pass := 0; pass < 1+btoi(dup); pass++ {
			for i := range run {
				out = append(out, in.corrupt(rng, skew, &run[i]))
			}
		}
	}
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// corrupt returns a (possibly) damaged copy of one item.
func (in *Injector) corrupt(rng *faultrng.Stream, skew uint64, it *source.Item) source.Item {
	if it.IsGap() {
		return source.GapItem(it.LostBytes(), it.GapStart()+skew, it.GapEnd()+skew)
	}
	c := *it
	if skew > 0 {
		in.tr.SkewTime(&c.Packet, skew)
	}
	if rng.Chance(in.m.Truncate) {
		in.count(ClassTruncate)
		c.Packet.Kind = in.tr.TruncatedKind()
		return c
	}
	if rng.Chance(in.m.BitFlip) {
		in.count(ClassBitFlip)
		switch rng.Intn(4) {
		case 0:
			c.Packet.IP ^= 1 << uint(rng.Intn(64))
		case 1:
			c.Packet.Bits ^= 1 << uint(rng.Intn(64))
		case 2:
			c.Packet.NBits ^= 1 << uint(rng.Intn(8))
		case 3:
			c.Packet.TSC ^= 1 << uint(rng.Intn(48))
		}
	}
	return c
}

// Sideband applies the sideband fault classes (tear, reorder) to the
// scheduler switch records. The input is never mutated; with both classes
// at zero the input slice is returned unchanged.
func (in *Injector) Sideband(recs []vm.SwitchRecord) []vm.SwitchRecord {
	if !in.m.sidebandActive() || len(recs) == 0 {
		return recs
	}
	out := make([]vm.SwitchRecord, 0, len(recs))
	for _, r := range recs {
		// The capturing core's clock stamps the record: skew it the same
		// way that core's trace packets are skewed.
		r.TSC += in.skew(r.Core)
		if in.sideband.Chance(in.m.SidebandTear) {
			in.count(ClassSidebandTear)
			r.TSC = 0 // torn record: the timestamp field reads as garbage
		}
		out = append(out, r)
	}
	for i := 0; i+1 < len(out); i++ {
		if in.sideband.Chance(in.m.SidebandReorder) {
			in.count(ClassSidebandReorder)
			out[i], out[i+1] = out[i+1], out[i]
			i++ // don't cascade a swapped record forward
		}
	}
	return out
}

// Snapshot applies the stale-JIT fault class: a clone of snap in which a
// seed-chosen fraction of compiled methods either vanish entirely (metadata
// never exported) or carry stale debug records (PCs shifted, marked
// Approximate — the recompilation-raced-export case of paper §3.2). With
// StaleJIT zero the original snapshot is returned unchanged.
func (in *Injector) Snapshot(snap *meta.Snapshot) *meta.Snapshot {
	if in.m.StaleJIT <= 0 || snap == nil {
		return snap
	}
	out := meta.NewSnapshot(snap.Templates)
	out.Stubs = snap.Stubs
	out.CodeCache = snap.CodeCache
	// Walk the export log (deterministic order; map iteration is not).
	// Fate is a pure function of seed and entry address so re-exports of
	// the same blob agree.
	for _, c := range snap.ExportedBlobs() {
		h := faultrng.New(in.m.Seed ^ 0xd6e8feb86659fd93 ^ c.EntryAddr())
		if h.Chance(in.m.StaleJIT) {
			in.count(ClassStaleJIT)
			if h.Next()&1 == 0 {
				continue // metadata missing entirely
			}
			out.Export(staleCopy(c, &h))
			continue
		}
		out.Export(c)
	}
	return out
}

// staleCopy clones c with every debug record's innermost frame PC shifted —
// the mapping still parses but points at the wrong bytecode.
func staleCopy(c *meta.CompiledMethod, rng *faultrng.Stream) *meta.CompiledMethod {
	cc := *c
	cc.Debug = make([]meta.DebugRecord, len(c.Debug))
	shift := int32(1 + rng.Intn(3))
	for i, d := range c.Debug {
		nd := d
		nd.Frames = append([]meta.Frame(nil), d.Frames...)
		if n := len(nd.Frames); n > 0 {
			nd.Frames[n-1].PC += shift
		}
		nd.Approximate = true
		cc.Debug[i] = nd
	}
	return &cc
}
