// Package vm is the simulated language runtime (the paper's JVM, §2): a
// template interpreter, tiered JIT execution with a bounded code cache and
// eviction, a multi-core round-robin thread scheduler with thread-switch
// sideband records (§6), deterministic cycle accounting, and hooks through
// which the PT collector (native-level branch events), the ground-truth
// oracle (bytecode-level events), instrumentation probes and sampling
// profilers observe execution.
//
// The machine interprets bytecode semantically; what makes it a faithful
// substrate for JPortal is that it *emits the exact native-level trace
// events* the corresponding machine code would generate: in interpreted
// mode one indirect dispatch (TIP) per bytecode plus a TNT per conditional;
// in compiled mode only the TNTs, TIPs and FUPs that the JIT-generated
// native code (package jit) would produce, so that a PT decoder can walk
// the real blobs and reconstruct the flow.
package vm

import (
	"errors"
	"fmt"

	"jportal/internal/bytecode"
	"jportal/internal/jit"
	"jportal/internal/meta"
)

// NativeTracer receives native-level trace events; *source.Collector
// implements it. A nil tracer disables tracing (baseline runs).
type NativeTracer interface {
	PGE(core int, ip, tsc uint64)
	PGD(core int, ip, tsc uint64)
	TNT(core int, branchAddr uint64, taken bool, tsc uint64)
	TIP(core int, target, tsc uint64)
	FUP(core int, ip, tsc uint64)
	// SwitchMark is called at every context switch; real PT emits a PIP
	// packet on the CR3 write, giving the trace a precise boundary
	// timestamp (modelled as a forced TSC packet).
	SwitchMark(core int, tsc uint64)
	Advance(core int, tsc uint64)
}

// BytecodeListener observes every executed bytecode instruction; the
// ground-truth oracle implements it.
type BytecodeListener interface {
	OnExec(tid int, mid bytecode.MethodID, pc int32, core int, tsc uint64)
}

// ProbeHandler runs instrumentation probes (PROBE instructions).
type ProbeHandler func(tid int, probe int32)

// Sampler is a sampling profiler hook, called once per executed bytecode
// with the current position; safepoint is true at method entries and taken
// backedges. It returns extra cycles to charge (its own overhead).
type Sampler interface {
	OnStep(tid, core int, tsc uint64, mid bytecode.MethodID, safepoint bool) uint64
}

// Config tunes the machine.
type Config struct {
	// Cores is the number of simulated CPU cores.
	Cores int
	// TimesliceCycles is the scheduler quantum.
	TimesliceCycles uint64
	// C1Threshold and C2Threshold are invocation-count (plus weighted
	// backedge) compilation triggers.
	C1Threshold int64
	C2Threshold int64
	// BackedgeWeight is how much a taken interpreter backedge contributes
	// to hotness relative to an invocation.
	BackedgeWeight int64
	// CodeCacheBytes bounds the code cache; exceeding it evicts the
	// oldest compiled method (whose blob was already exported, §3.2).
	CodeCacheBytes uint64
	// SwitchJitterCycles perturbs sideband thread-switch timestamps,
	// reproducing the paper's timestamp-inconsistency failure mode
	// (§7.2).
	SwitchJitterCycles uint64
	// MaxSteps aborts runaway programs.
	MaxSteps uint64
	// DeoptOnThrow makes compiled frames that catch an exception
	// deoptimize to the interpreter at the handler (HotSpot's uncommon
	// trap for exceptional paths); the frame re-enters compiled code at
	// the next hot backedge via OSR. Disable for a simpler trace.
	DeoptOnThrow bool
	// Costs is the cycle cost model.
	Costs CostModel
	// JITSalt seeds the tier-2 elision/approximation hashes.
	JITSalt uint64
}

// DefaultConfig returns a reasonable single-socket configuration.
func DefaultConfig() Config {
	return Config{
		Cores:              4,
		TimesliceCycles:    50_000,
		C1Threshold:        40,
		C2Threshold:        400,
		BackedgeWeight:     1,
		CodeCacheBytes:     1 << 20,
		SwitchJitterCycles: 48,
		MaxSteps:           200_000_000,
		DeoptOnThrow:       true,
		Costs:              DefaultCosts(),
		JITSalt:            0x5eed,
	}
}

// ThreadSpec describes one thread to run: an entry method and its
// arguments.
type ThreadSpec struct {
	Method bytecode.MethodID
	Args   []int32
}

// SwitchRecord is a sideband thread-scheduling record: thread Thread began
// running on Core at (jittered) time TSC.
type SwitchRecord struct {
	Core   int
	TSC    uint64
	Thread int
}

// Stats accumulates a run's results.
type Stats struct {
	// Cycles is the wall-clock proxy: the maximum core clock at the end.
	Cycles uint64
	// ActiveCycles is total CPU time: the sum of all scheduling quanta.
	// Unlike wall-clock it is monotone in added per-step costs, so
	// overhead ratios computed from it are scheduling-noise free.
	ActiveCycles uint64
	// CoreCycles is each core's final clock.
	CoreCycles []uint64
	// ExecutedBytecodes counts all executed instructions; Interp/JIT
	// split them by execution mode.
	ExecutedBytecodes uint64
	InterpBytecodes   uint64
	JITBytecodes      uint64
	Compilations      int
	Evictions         int
	UncaughtThrows    int
	// MethodCycles is ground-truth exclusive time per method.
	MethodCycles []uint64
	// MethodCalls is ground-truth invocation counts.
	MethodCalls []int64
	// ThreadResults holds each thread's entry-method return value (0 for
	// void entries).
	ThreadResults []int32
}

// Machine executes one program.
type Machine struct {
	Prog     *bytecode.Program
	Cfg      Config
	Tracer   NativeTracer
	Listener BytecodeListener
	Probe    ProbeHandler
	// ProbeActionCost is charged per probe firing (the instrumentation
	// body: counter bump, event append, ...). Baselines set it.
	ProbeActionCost uint64
	Sampler         Sampler

	// Snapshot is the machine-code metadata JPortal's online component
	// collects; it grows as methods are compiled.
	Snapshot *meta.Snapshot

	templates *meta.TemplateTable
	stubs     meta.Stubs

	compiled  map[bytecode.MethodID]*jit.NativeMethod
	tierOf    map[bytecode.MethodID]int
	blobAt    map[uint64]*jit.NativeMethod
	evictFIFO []evictEntry
	nextCode  uint64
	cacheUsed uint64

	hotness []int64

	heap [][]int32

	threads  []*thread
	cores    []coreState
	sideband []SwitchRecord
	// lastSideband clamps per-core sideband timestamps to monotonicity
	// (jitter models measurement noise but records stay ordered, as
	// perf's do).
	lastSideband []uint64

	steps uint64
	Stats Stats
}

// evictEntry identifies one compilation in the code cache (a method can
// have several over its lifetime: tier-up, recompilation after eviction).
type evictEntry struct {
	mid  bytecode.MethodID
	base uint64
	size uint64
}

type coreState struct {
	clock uint64
	used  bool
	// milli accumulates sub-cycle trace-export costs; rolled into clock
	// every 1000 millicycles.
	milli uint64
}

type thread struct {
	id     int
	frames []frame
	done   bool
	result int32
	// endTSC is the simulated time the thread last stopped running; a
	// core resuming it must advance to at least this clock (a thread
	// cannot run in two places at once).
	endTSC uint64
	// lastCore remembers where the thread last ran (scheduler affinity);
	// slices counts scheduling quanta for periodic forced migration.
	lastCore int
	slices   uint64
}

type frame struct {
	method *bytecode.Method
	locals []int32
	stack  []int32
	pc     int32

	jit    bool
	nm     *jit.NativeMethod
	ctx    jit.CtxID
	inline bool
	// retNative is where a non-inline return transfers at the native
	// level: a caller-blob resume address, the RetEntry stub (returning
	// to the interpreter), or the ThreadExit stub (bottom frame). For
	// interpreted frames it is nonzero only when the caller is compiled.
	retNative uint64
}

// New creates a machine for prog.
func New(prog *bytecode.Program, cfg Config) *Machine {
	t, stubs := buildTemplates()
	snap := meta.NewSnapshot(t)
	snap.Stubs = stubs
	m := &Machine{
		Prog:      prog,
		Cfg:       cfg,
		Snapshot:  snap,
		templates: t,
		stubs:     stubs,
		compiled:  make(map[bytecode.MethodID]*jit.NativeMethod),
		tierOf:    make(map[bytecode.MethodID]int),
		blobAt:    make(map[uint64]*jit.NativeMethod),
		nextCode:  meta.CodeCacheBase,
		hotness:   make([]int64, len(prog.Methods)),
		heap:      make([][]int32, 1), // slot 0 is null
		cores:     make([]coreState, cfg.Cores),
	}
	m.Stats.MethodCycles = make([]uint64, len(prog.Methods))
	m.Stats.MethodCalls = make([]int64, len(prog.Methods))
	return m
}

// Templates exposes the template table (for decoders and tests).
func (m *Machine) Templates() *meta.TemplateTable { return m.templates }

// Stubs exposes the adapter stub ranges.
func (m *Machine) Stubs() meta.Stubs { return m.stubs }

// Sideband returns the thread-switch records collected during Run.
func (m *Machine) Sideband() []SwitchRecord { return m.sideband }

// SidebandWatermarks returns, per core, a timestamp below which no further
// switch record can be emitted (sideband is clamped monotone per core).
// Streaming consumers use it to decide which scheduling windows are final.
func (m *Machine) SidebandWatermarks() []uint64 {
	return append([]uint64(nil), m.lastSideband...)
}

// CompiledTier returns the current tier of mid (0 = interpreted).
func (m *Machine) CompiledTier(mid bytecode.MethodID) int { return m.tierOf[mid] }

// maybeCompile applies the tiered compilation policy after a hotness bump.
func (m *Machine) maybeCompile(mid bytecode.MethodID, core int) {
	h := m.hotness[mid]
	tier := m.tierOf[mid]
	switch {
	case tier == 0 && h >= m.Cfg.C1Threshold:
		m.compile(mid, 1, core)
	case tier == 1 && h >= m.Cfg.C2Threshold:
		m.compile(mid, 2, core)
	}
}

func (m *Machine) compile(mid bytecode.MethodID, tier int, core int) {
	entries := make(map[bytecode.MethodID]uint64, len(m.compiled))
	for id, nm := range m.compiled {
		entries[id] = nm.EntryAddr()
	}
	var opts jit.Options
	if tier == 1 {
		opts = jit.DefaultC1(m.nextCode, entries)
	} else {
		opts = jit.DefaultC2(m.nextCode, entries)
	}
	opts.Salt = m.Cfg.JITSalt
	nm, err := jit.Compile(m.Prog, mid, opts)
	if err != nil {
		// Compilation bugs must never corrupt execution; stay interpreted.
		panic(fmt.Sprintf("vm: jit compile m%d: %v", mid, err))
	}
	size := nm.Meta.Code.Limit() - nm.Meta.Code.Base()
	// Bump allocation: addresses are never reused, so every exported blob
	// stays unambiguous in the snapshot even after eviction (a documented
	// simplification relative to HotSpot's reusing code cache).
	m.nextCode = nm.Meta.Code.Limit() + 0x40
	m.cacheUsed += size
	m.compiled[mid] = nm
	m.tierOf[mid] = tier
	m.blobAt[nm.EntryAddr()] = nm
	m.evictFIFO = append(m.evictFIFO, evictEntry{mid: mid, base: nm.EntryAddr(), size: size})
	m.Stats.Compilations++

	// JPortal online collection: the blob and debug info are copied out
	// through the shared buffer (paper §6); charge the cost.
	nInstr := uint64(len(nm.Meta.Code.Instrs))
	m.cores[core].clock += nInstr * m.Cfg.Costs.CompileCostPerInstr
	if m.Tracer != nil {
		m.cores[core].clock += nInstr * m.Cfg.Costs.MetadataExportPerInstr
	}
	m.Snapshot.Export(nm.Meta)

	for m.cacheUsed > m.Cfg.CodeCacheBytes && len(m.evictFIFO) > 1 {
		m.evictOldest()
	}
}

// evictOldest removes the least recently compiled blob from the cache (its
// exported metadata remains available to the offline decoder). When the
// method has since been recompiled at a different address, only the stale
// blob's space is reclaimed; the current compilation stays installed.
func (m *Machine) evictOldest() {
	victim := m.evictFIFO[0]
	m.evictFIFO = m.evictFIFO[1:]
	m.cacheUsed -= victim.size
	m.Stats.Evictions++
	nm, ok := m.compiled[victim.mid]
	if !ok || nm.EntryAddr() != victim.base {
		return // superseded by a newer compilation
	}
	delete(m.compiled, victim.mid)
	delete(m.tierOf, victim.mid)
	// Old addresses stay resolvable: frames entered via stale direct
	// calls keep running the old blob.
	m.hotness[victim.mid] = m.Cfg.C1Threshold / 2
}

var errMaxSteps = errors.New("vm: step budget exhausted (runaway program?)")
