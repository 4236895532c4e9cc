// Package isa models the simulated native instruction set that the virtual
// machine's interpreter templates and JIT compiler emit, and that the PT
// decoder walks. Only the properties Intel PT cares about are modelled:
// every instruction has an address, a size, and a control-flow kind that
// determines whether executing it produces a TNT bit (conditional branch),
// a TIP packet (indirect transfer), or nothing (direct transfers and linear
// code, whose targets a decoder infers from the code itself).
package isa

import (
	"fmt"
	"sort"
)

// Kind classifies a native instruction for trace purposes.
type Kind uint8

const (
	// Linear instructions fall through to Addr+Size.
	Linear Kind = iota
	// CondBranch either falls through or jumps to Target; PT records one
	// TNT bit.
	CondBranch
	// Jump is a direct unconditional jump to Target; no packet.
	Jump
	// Call is a direct call to Target; no packet (the return address is
	// inferable).
	Call
	// IndirectJump jumps to a runtime-computed target; PT records a TIP.
	IndirectJump
	// IndirectCall calls a runtime-computed target; PT records a TIP.
	IndirectCall
	// Ret returns to a runtime-computed address; PT records a TIP.
	Ret
)

func (k Kind) String() string {
	switch k {
	case Linear:
		return "linear"
	case CondBranch:
		return "jcc"
	case Jump:
		return "jmp"
	case Call:
		return "call"
	case IndirectJump:
		return "jmp*"
	case IndirectCall:
		return "call*"
	case Ret:
		return "ret"
	}
	return fmt.Sprintf("kind#%d", uint8(k))
}

// IsIndirect reports whether executing the instruction produces a TIP
// packet.
func (k Kind) IsIndirect() bool {
	return k == IndirectJump || k == IndirectCall || k == Ret
}

// Instr is one simulated native instruction.
type Instr struct {
	Addr   uint64
	Size   uint8
	Kind   Kind
	Target uint64 // direct branch/jump/call target; 0 otherwise
	// Comment annotates disassembly listings (e.g. the bytecode this
	// instruction was compiled from); it has no semantic effect.
	Comment string
}

// End returns the address just past the instruction.
func (i *Instr) End() uint64 { return i.Addr + uint64(i.Size) }

// Blob is a contiguous run of native instructions, addresses strictly
// increasing and gapless.
type Blob struct {
	Name   string
	Instrs []Instr
}

// Base returns the first instruction's address (0 for an empty blob).
func (b *Blob) Base() uint64 {
	if len(b.Instrs) == 0 {
		return 0
	}
	return b.Instrs[0].Addr
}

// Limit returns the address just past the last instruction.
func (b *Blob) Limit() uint64 {
	if len(b.Instrs) == 0 {
		return 0
	}
	return b.Instrs[len(b.Instrs)-1].End()
}

// Contains reports whether addr falls within the blob.
func (b *Blob) Contains(addr uint64) bool {
	return addr >= b.Base() && addr < b.Limit()
}

// IndexOf returns the index of the instruction starting at addr, or -1.
func (b *Blob) IndexOf(addr uint64) int {
	i := sort.Search(len(b.Instrs), func(i int) bool { return b.Instrs[i].Addr >= addr })
	if i < len(b.Instrs) && b.Instrs[i].Addr == addr {
		return i
	}
	return -1
}

// At returns the instruction starting at addr, or nil.
func (b *Blob) At(addr uint64) *Instr {
	if i := b.IndexOf(addr); i >= 0 {
		return &b.Instrs[i]
	}
	return nil
}

// Validate checks the blob's structural invariants.
func (b *Blob) Validate() error {
	for i := range b.Instrs {
		ins := &b.Instrs[i]
		if ins.Size == 0 {
			return fmt.Errorf("blob %s: zero-size instruction at %#x", b.Name, ins.Addr)
		}
		if i > 0 && ins.Addr != b.Instrs[i-1].End() {
			return fmt.Errorf("blob %s: gap/overlap at %#x (prev ends %#x)",
				b.Name, ins.Addr, b.Instrs[i-1].End())
		}
	}
	return nil
}

// Assembler incrementally builds a Blob with automatic address layout.
type Assembler struct {
	blob Blob
	next uint64
}

// NewAssembler starts a blob named name at base.
func NewAssembler(name string, base uint64) *Assembler {
	return &Assembler{blob: Blob{Name: name}, next: base}
}

// PC returns the address the next emitted instruction will get.
func (a *Assembler) PC() uint64 { return a.next }

// Emit appends an instruction of the given kind and size; the target of
// direct transfers may be patched later via PatchTarget.
func (a *Assembler) Emit(kind Kind, size uint8, target uint64, comment string) uint64 {
	addr := a.next
	a.blob.Instrs = append(a.blob.Instrs, Instr{
		Addr: addr, Size: size, Kind: kind, Target: target, Comment: comment,
	})
	a.next += uint64(size)
	return addr
}

// PatchTarget sets the target of the instruction at addr.
func (a *Assembler) PatchTarget(addr, target uint64) {
	i := a.blob.IndexOf(addr)
	if i < 0 {
		panic(fmt.Sprintf("PatchTarget: no instruction at %#x", addr))
	}
	a.blob.Instrs[i].Target = target
}

// Finish returns the completed blob.
func (a *Assembler) Finish() *Blob {
	b := a.blob
	return &b
}

// AddressSpace groups blobs and resolves addresses to them.
type AddressSpace struct {
	blobs []*Blob // sorted by base
}

// Add inserts a blob; blobs must not overlap.
func (s *AddressSpace) Add(b *Blob) error {
	if err := b.Validate(); err != nil {
		return err
	}
	i := sort.Search(len(s.blobs), func(i int) bool { return s.blobs[i].Base() >= b.Base() })
	if i > 0 && s.blobs[i-1].Limit() > b.Base() {
		return fmt.Errorf("blob %s overlaps %s", b.Name, s.blobs[i-1].Name)
	}
	if i < len(s.blobs) && b.Limit() > s.blobs[i].Base() {
		return fmt.Errorf("blob %s overlaps %s", b.Name, s.blobs[i].Name)
	}
	s.blobs = append(s.blobs, nil)
	copy(s.blobs[i+1:], s.blobs[i:])
	s.blobs[i] = b
	return nil
}

// Remove deletes the blob containing addr, returning it (nil if none).
func (s *AddressSpace) Remove(addr uint64) *Blob {
	i := s.find(addr)
	if i < 0 {
		return nil
	}
	b := s.blobs[i]
	s.blobs = append(s.blobs[:i], s.blobs[i+1:]...)
	return b
}

// Lookup returns the blob containing addr, or nil.
func (s *AddressSpace) Lookup(addr uint64) *Blob {
	if i := s.find(addr); i >= 0 {
		return s.blobs[i]
	}
	return nil
}

func (s *AddressSpace) find(addr uint64) int {
	i := sort.Search(len(s.blobs), func(i int) bool { return s.blobs[i].Limit() > addr })
	if i < len(s.blobs) && s.blobs[i].Contains(addr) {
		return i
	}
	return -1
}
