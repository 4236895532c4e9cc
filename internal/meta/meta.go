// Package meta defines the machine-code metadata that JPortal's online
// component collects from the virtual machine and its offline component
// consumes for decoding (paper §3): the interpreter's template address
// ranges, exported JIT code blobs with their debug information, and the
// code-cache boundary used for instruction-pointer filtering (§6).
package meta

import (
	"fmt"
	"sort"

	"jportal/internal/bytecode"
	"jportal/internal/isa"
)

// Address-space layout of the simulated process. The template area and the
// code cache are disjoint so a single range check classifies an IP.
const (
	// TemplateBase is where the interpreter's opcode templates live.
	TemplateBase uint64 = 0x7f40_0000_0000
	// CodeCacheBase is where JIT-compiled code is allocated.
	CodeCacheBase uint64 = 0x7f80_0000_0000
	// CodeCacheLimit bounds the code cache.
	CodeCacheLimit uint64 = 0x7fc0_0000_0000
)

// Range is a half-open native address range [Start, End).
type Range struct {
	Start, End uint64
}

// Contains reports whether addr is in r.
func (r Range) Contains(addr uint64) bool { return addr >= r.Start && addr < r.End }

// TemplateTable records, per opcode, the machine-code address ranges of its
// interpreter template (Figure 2c). A handler may occupy multiple sub-ranges
// when its machine code is non-contiguous (paper §3.1).
type TemplateTable struct {
	// Ranges[op] lists the sub-ranges of opcode op; the first is the
	// template entry (dispatch target).
	Ranges [][]Range

	// flat is a sorted index for address lookup.
	flat []flatRange
}

type flatRange struct {
	Range
	op bytecode.Opcode
}

// NewTemplateTable allocates an empty table covering all opcodes.
func NewTemplateTable() *TemplateTable {
	return &TemplateTable{Ranges: make([][]Range, bytecode.NumOpcodes)}
}

// Add registers a sub-range for op.
func (t *TemplateTable) Add(op bytecode.Opcode, r Range) {
	t.Ranges[op] = append(t.Ranges[op], r)
	t.flat = append(t.flat, flatRange{Range: r, op: op})
	sort.Slice(t.flat, func(i, j int) bool { return t.flat[i].Start < t.flat[j].Start })
}

// Entry returns the dispatch entry address of op's template.
func (t *TemplateTable) Entry(op bytecode.Opcode) uint64 {
	rs := t.Ranges[op]
	if len(rs) == 0 {
		panic(fmt.Sprintf("template table has no range for %s", op))
	}
	return rs[0].Start
}

// Lookup maps a native address to the opcode whose template contains it.
func (t *TemplateTable) Lookup(addr uint64) (bytecode.Opcode, bool) {
	i := sort.Search(len(t.flat), func(i int) bool { return t.flat[i].End > addr })
	if i < len(t.flat) && t.flat[i].Contains(addr) {
		return t.flat[i].op, true
	}
	return 0, false
}

// Frame is one level of an inline chain: the bytecode instruction at PC of
// Method. Debug info attaches a stack of frames to native instructions;
// Frames[0] is the outermost (root, non-inlined) method and the last entry
// is the instruction actually represented (paper §6, "Dealing with Inlined
// Code").
type Frame struct {
	Method bytecode.MethodID
	PC     int32
}

func (f Frame) String() string { return fmt.Sprintf("m%d@%d", f.Method, f.PC) }

// DebugRecord maps one native instruction (by address) back to bytecode.
type DebugRecord struct {
	Addr   uint64
	Frames []Frame
	// Approximate marks records whose mapping was coarsened by JIT
	// optimisation (loop transformation etc.); decoding uses them but
	// accuracy may suffer (paper §7.2).
	Approximate bool
}

// CompiledMethod is an exported JIT code blob plus its metadata. The VM
// exports one of these when a method is compiled, and (again) right before
// its code would be reclaimed by code-cache GC (paper §3.2).
type CompiledMethod struct {
	Root bytecode.MethodID
	Tier int // 1 = C1, 2 = C2
	Code *isa.Blob
	// Debug holds one record per native instruction, address-sorted.
	Debug []DebugRecord
	// Inlined lists methods inlined into this blob (excluding Root).
	Inlined []bytecode.MethodID
}

// EntryAddr returns the blob's entry address.
func (c *CompiledMethod) EntryAddr() uint64 { return c.Code.Base() }

// DebugAt returns the debug record for the native instruction at addr.
func (c *CompiledMethod) DebugAt(addr uint64) (*DebugRecord, bool) {
	i := sort.Search(len(c.Debug), func(i int) bool { return c.Debug[i].Addr >= addr })
	if i < len(c.Debug) && c.Debug[i].Addr == addr {
		return &c.Debug[i], true
	}
	return nil, false
}

// Validate checks that the debug map covers exactly the blob's instructions.
func (c *CompiledMethod) Validate() error {
	if c.Code == nil {
		return fmt.Errorf("compiled m%d: no code blob", c.Root)
	}
	if err := c.Code.Validate(); err != nil {
		return err
	}
	if len(c.Debug) != len(c.Code.Instrs) {
		return fmt.Errorf("compiled m%d: %d debug records for %d instructions",
			c.Root, len(c.Debug), len(c.Code.Instrs))
	}
	for i := range c.Debug {
		if c.Debug[i].Addr != c.Code.Instrs[i].Addr {
			return fmt.Errorf("compiled m%d: debug record %d at %#x but instruction at %#x",
				c.Root, i, c.Debug[i].Addr, c.Code.Instrs[i].Addr)
		}
		if len(c.Debug[i].Frames) == 0 {
			return fmt.Errorf("compiled m%d: debug record %d has no frames", c.Root, i)
		}
	}
	return nil
}

// Stubs are the runtime adapter entry points living in the template area.
// Real HotSpot has i2c/c2i adapters and return/unwind stubs; transfers into
// them show up in traces as TIP targets, and the decoder classifies them to
// track interpreter/compiled mode switches.
type Stubs struct {
	// InterpEntry is the target of an indirect call from compiled code
	// into the interpreter (callee not compiled).
	InterpEntry Range
	// RetEntry is the target of a compiled method's return when the
	// caller is interpreted.
	RetEntry Range
	// Unwind is the target of exceptional unwinding before control
	// reaches the handler.
	Unwind Range
	// ThreadExit is the return target of a thread's bottom frame.
	ThreadExit Range
	// Deopt is the uncommon-trap entry: compiled code that hits an
	// exceptional state deoptimizes through it back to the interpreter.
	Deopt Range
}

// Classify returns which stub addr belongs to: "interp_entry", "ret_entry",
// "unwind", "thread_exit", or "" if none.
func (s *Stubs) Classify(addr uint64) string {
	switch {
	case s.InterpEntry.Contains(addr):
		return "interp_entry"
	case s.RetEntry.Contains(addr):
		return "ret_entry"
	case s.Unwind.Contains(addr):
		return "unwind"
	case s.ThreadExit.Contains(addr):
		return "thread_exit"
	case s.Deopt.Contains(addr):
		return "deopt"
	}
	return ""
}

// Snapshot is everything the offline decoder needs about machine code: it is
// JPortal's "machine-code metadata" deliverable from the online phase.
type Snapshot struct {
	Templates *TemplateTable
	Stubs     Stubs
	// Compiled holds every blob ever exported, including ones later
	// evicted from the code cache, keyed by entry address. Multiple
	// compilations of the same method (tier-up, recompilation after
	// eviction) appear as separate entries.
	Compiled map[uint64]*CompiledMethod
	// CodeCache is the IP filter range covering interpreted and JITed
	// application code (paper §6, "Filtering Out Irrelevant Data").
	CodeCache Range

	sorted []uint64 // sorted entry addresses, lazily rebuilt
	dirty  bool
	// exportLog records every blob passed to Export, in export order
	// (re-exports appear again). Streaming consumers read suffixes of it
	// as metadata deltas.
	exportLog []*CompiledMethod
}

// NewSnapshot creates an empty snapshot with the standard layout.
func NewSnapshot(t *TemplateTable) *Snapshot {
	return &Snapshot{
		Templates: t,
		Compiled:  make(map[uint64]*CompiledMethod),
		CodeCache: Range{Start: TemplateBase, End: CodeCacheLimit},
	}
}

// Export records a compiled method blob.
func (s *Snapshot) Export(c *CompiledMethod) {
	if _, exists := s.Compiled[c.EntryAddr()]; !exists {
		s.dirty = true
	}
	s.Compiled[c.EntryAddr()] = c
	s.exportLog = append(s.exportLog, c)
}

// Clone returns an independent snapshot sharing the immutable pieces: the
// template table, the stubs, and the *CompiledMethod blobs themselves
// (never mutated after export). The clone has its own Compiled map, export
// log and sorted index, so exporting into it never races readers of the
// original — the staged Session gives each analyzer worker a replica
// and delivers blob records to it in stream order.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{
		Templates: s.Templates,
		Stubs:     s.Stubs,
		Compiled:  make(map[uint64]*CompiledMethod, len(s.Compiled)),
		CodeCache: s.CodeCache,
		exportLog: append([]*CompiledMethod(nil), s.exportLog...),
		dirty:     true,
	}
	for base, cm := range s.Compiled {
		c.Compiled[base] = cm
	}
	return c
}

// ExportedBlobs returns the export log: every blob ever passed to Export,
// in export order. Replaying the log through Export reproduces Compiled
// exactly (later entries overwrite earlier ones at the same address), which
// is how the chunked archive ships metadata incrementally (§3.2).
func (s *Snapshot) ExportedBlobs() []*CompiledMethod { return s.exportLog }

// Seal eagerly rebuilds the sorted address index. BlobFor rebuilds it
// lazily, which mutates the snapshot on first lookup; callers that are
// about to share the snapshot across goroutines (the offline pipeline's
// per-thread fan-out) must Seal first so every subsequent BlobFor is a
// pure read. Sealing an already-clean snapshot is a no-op, so it is cheap
// to call before every parallel stage.
func (s *Snapshot) Seal() {
	if s.dirty || s.sorted == nil {
		s.sorted = s.sorted[:0]
		for base := range s.Compiled {
			s.sorted = append(s.sorted, base)
		}
		sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i] < s.sorted[j] })
		s.dirty = false
	}
}

// BlobFor returns the compiled method whose code contains addr, or nil.
func (s *Snapshot) BlobFor(addr uint64) *CompiledMethod {
	s.Seal()
	i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i] > addr })
	if i == 0 {
		return nil
	}
	c := s.Compiled[s.sorted[i-1]]
	if c.Code.Contains(addr) {
		return c
	}
	return nil
}

// IsTemplate reports whether addr lies in the interpreter template area.
func (s *Snapshot) IsTemplate(addr uint64) bool {
	return addr >= TemplateBase && addr < CodeCacheBase
}

// InFilter reports whether addr passes the IP filter (i.e. belongs to the
// traced application's interpreted or JITed code).
func (s *Snapshot) InFilter(addr uint64) bool { return s.CodeCache.Contains(addr) }
