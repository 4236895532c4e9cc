package source

// Collector models the per-core trace hardware plus the exporter thread
// (paper §2, §4): it accepts logical branch events from the VM, encodes
// them into packets of its source's vocabulary, stores them in a bounded
// per-core ring, and drains the ring at a bounded rate. Everything here is
// source-independent; the packet kinds and their wire sizes come from the
// source's Traits. It satisfies the VM's NativeTracer interface.
type Collector struct {
	tr    *Traits
	cfg   CollectorConfig
	cores []coreState

	// genBytes is the total bytes generated (exported + lost).
	genBytes uint64

	// sink, when set, receives drained items incrementally instead of
	// letting them accumulate in the per-core traces (streaming export).
	sink      ChunkSink
	sinkFlush int
}

// ChunkSink receives items drained from one core's trace buffer, in export
// order. The slice is freshly allocated per call and may be retained. A
// collector invokes the sink synchronously from whatever goroutine drives
// it (the VM's execution loop), so a sink must be fast or hand off.
type ChunkSink func(core int, items []Item)

// DefaultSinkFlushItems is the per-core chunk size used when SetSink is
// given a non-positive flush bound.
const DefaultSinkFlushItems = 256

type coreState struct {
	enc          encoder
	ring         ring
	trace        CoreTrace
	lastTSC      uint64
	lastDrainTSC uint64
	sinceSync    uint64
	// drainMilli carries the fractional drain budget between Advance
	// calls (the exporter's bandwidth is sub-byte per cycle).
	drainMilli uint64
	// lastGapEnd monotonizes loss episodes per core.
	lastGapEnd uint64
	// needResync requests a resync preamble before the next packet after
	// a loss episode.
	needResync bool
	// pendingOut buffers drained items awaiting a sink flush (sink mode
	// only).
	pendingOut []Item
}

type ring struct {
	capBytes  uint64
	usedBytes uint64
	// q holds packets and in-band gap markers in generation order; gap
	// markers occupy no buffer space (they model perf_record_aux sideband
	// records, which are not stored in the AUX area).
	q         []Item
	inLoss    bool
	lossStart uint64
	lostBytes uint64
	// lostBits counts branch bits dropped individually during a loss
	// episode (they never became packets); folded into lostBytes at gap
	// close.
	lostBits uint64
}

// NewCollector creates a collector for ncores cores that encodes in tr's
// packet vocabulary.
func NewCollector(tr *Traits, cfg CollectorConfig, ncores int) *Collector {
	c := &Collector{tr: tr, cfg: cfg, cores: make([]coreState, ncores)}
	for i := range c.cores {
		c.cores[i].enc.tr = tr
		c.cores[i].ring.capBytes = cfg.BufBytes
	}
	return c
}

// SetSink switches the collector to streaming export: drained items are
// delivered to sink in chunks of at most flushItems items (<= 0 means
// DefaultSinkFlushItems) instead of accumulating in memory until Finish.
// In sink mode Finish flushes the remainder through the sink and returns
// CoreTraces that carry only the core numbers, with nil Items. Set the
// sink before the run starts; switching mid-run would reorder the stream.
func (c *Collector) SetSink(flushItems int, sink ChunkSink) {
	if flushItems <= 0 {
		flushItems = DefaultSinkFlushItems
	}
	c.sink = sink
	c.sinkFlush = flushItems
}

// push tries to enqueue p on core cs; on overflow it records/extends a loss
// episode instead. A loss episode persists until the exporter has drained
// the buffer below ResumePercent of its capacity — the hysteresis models
// perf reading the AUX area in chunks, which is why real PT loses long
// spans rather than isolated packets (paper §1: "an arbitrary number of
// execution periods, each at an arbitrary length").
func (c *Collector) push(cs *coreState, p Packet, tsc uint64) {
	r := &cs.ring
	full := r.usedBytes+uint64(p.WireLen) > r.capBytes
	resumeAt := r.capBytes * uint64(c.cfg.ResumePercent) / 100
	if full || (r.inLoss && r.usedBytes > resumeAt) {
		if !r.inLoss {
			r.inLoss = true
			r.lossStart = tsc
			if r.lossStart < cs.lastGapEnd {
				r.lossStart = cs.lastGapEnd
			}
			r.lostBytes = 0
		}
		r.lostBytes += uint64(p.WireLen)
		c.genBytes += uint64(p.WireLen)
		return
	}
	if r.inLoss {
		// Loss episode ends: record the gap, reset compression, and
		// request a resync preamble.
		c.closeGap(cs, tsc)
	}
	if cs.needResync {
		cs.needResync = false
		// The preamble is a sync packet plus, unless the sync packet
		// carries the full timestamp itself, a time packet (PSB+TSC for
		// PT, one SYNC for E-Trace). It is small relative to the buffer,
		// so it is accounted for without re-checking capacity.
		c.enqueue(cs, cs.enc.sync(tsc))
		if !c.tr.IsTime(c.tr.Roles.Sync) {
			c.enqueue(cs, cs.enc.time(tsc))
		}
		cs.lastTSC = tsc
		cs.sinceSync = 0
		// Re-encode the packet: compression state was reset, so an
		// address-bearing packet needs its full width.
		if c.tr.isAddr(p.Kind) {
			p = cs.enc.addr(p.Kind, p.IP)
		}
	}
	c.enqueue(cs, p)
	cs.sinceSync += uint64(p.WireLen)
}

// enqueue appends p to the core's ring and accounts its bytes.
func (c *Collector) enqueue(cs *coreState, p Packet) {
	cs.ring.q = append(cs.ring.q, Item{Packet: p})
	cs.ring.usedBytes += uint64(p.WireLen)
	c.genBytes += uint64(p.WireLen)
}

// closeGap records the pending loss episode ending at endTSC and arms the
// resync preamble.
func (c *Collector) closeGap(cs *coreState, endTSC uint64) {
	r := &cs.ring
	if endTSC <= r.lossStart {
		endTSC = r.lossStart + 1
	}
	// The gap marker travels through the ring FIFO so the exported
	// stream stays in generation order even when packets generated before
	// the loss drain afterwards.
	r.q = append(r.q, GapItem(r.lostBytes+(r.lostBits+7)/8, r.lossStart, endTSC))
	cs.lastGapEnd = endTSC
	r.inLoss = false
	r.lostBits = 0
	cs.enc.reset()
	cs.needResync = true
}

// housekeeping emits periodic time and sync packets before a payload
// packet. A sync packet that carries the timestamp restarts the time
// period too.
func (c *Collector) housekeeping(cs *coreState, tsc uint64) {
	if tsc-cs.lastTSC >= c.cfg.TSCPeriodCycles {
		c.flushPending(cs, tsc)
		cs.lastTSC = tsc
		c.push(cs, cs.enc.time(tsc), tsc)
	}
	if cs.sinceSync >= c.cfg.PSBPeriodBytes {
		c.flushPending(cs, tsc)
		cs.sinceSync = 0
		if c.tr.IsTime(c.tr.Roles.Sync) {
			cs.lastTSC = tsc
		}
		c.push(cs, cs.enc.sync(tsc), tsc)
	}
}

// flushPending flushes buffered branch bits (before any non-branch packet,
// to preserve event order).
func (c *Collector) flushPending(cs *coreState, tsc uint64) {
	if p, ok := cs.enc.flushBranches(); ok {
		c.push(cs, p, tsc)
	}
}

// addrEvent records an address-bearing packet of the given kind on core.
func (c *Collector) addrEvent(core int, kind Kind, ip, tsc uint64) {
	cs := &c.cores[core]
	c.Advance(core, tsc)
	c.housekeeping(cs, tsc)
	c.flushPending(cs, tsc)
	c.push(cs, cs.enc.addr(kind, ip), tsc)
}

// PGE records tracing turning on at ip.
func (c *Collector) PGE(core int, ip, tsc uint64) { c.addrEvent(core, c.tr.Roles.Enable, ip, tsc) }

// PGD records tracing turning off at ip.
func (c *Collector) PGD(core int, ip, tsc uint64) { c.addrEvent(core, c.tr.Roles.Disable, ip, tsc) }

// TIP records an indirect transfer to target.
func (c *Collector) TIP(core int, target, tsc uint64) {
	c.addrEvent(core, c.tr.Roles.Target, target, tsc)
}

// FUP records the source IP of an asynchronous event (e.g. an exception).
func (c *Collector) FUP(core int, ip, tsc uint64) { c.addrEvent(core, c.tr.Roles.Anchor, ip, tsc) }

// TNT records a conditional-branch outcome at branchAddr on core.
func (c *Collector) TNT(core int, branchAddr uint64, taken bool, tsc uint64) {
	cs := &c.cores[core]
	c.Advance(core, tsc)
	c.housekeeping(cs, tsc)
	if cs.ring.inLoss {
		// Try to end the loss episode with an anchor packet for the
		// branch bits that follow; if the buffer is still full the bit
		// itself is lost.
		c.push(cs, cs.enc.addr(c.tr.Roles.Anchor, branchAddr), tsc)
		if cs.ring.inLoss {
			cs.ring.lostBits++
			return
		}
	} else if cs.needResync {
		// After a loss the decoder cannot attribute raw branch bits; emit
		// an anchor carrying the branch address first so decoding can
		// resume here (the push path prepends the resync preamble).
		c.push(cs, cs.enc.addr(c.tr.Roles.Anchor, branchAddr), tsc)
	}
	if p, full := cs.enc.branch(taken); full {
		c.push(cs, p, tsc)
	}
}

// SwitchMark records a context-switch boundary: PT emits a PIP packet at
// the CR3 write; it is modelled as a forced timestamp so offline thread
// segregation has a precise anchor (paper §6).
func (c *Collector) SwitchMark(core int, tsc uint64) {
	cs := &c.cores[core]
	c.Advance(core, tsc)
	c.flushPending(cs, tsc)
	cs.lastTSC = tsc
	c.push(cs, cs.enc.time(tsc), tsc)
}

// Advance drains the core's ring according to the export bandwidth and the
// elapsed cycles. The VM calls it implicitly via every event and explicitly
// at scheduling points.
func (c *Collector) Advance(core int, tsc uint64) {
	cs := &c.cores[core]
	if tsc <= cs.lastDrainTSC {
		return
	}
	prev := cs.lastDrainTSC
	cs.drainMilli += (tsc - prev) * c.cfg.DrainBytesPerKCycle
	cs.lastDrainTSC = tsc
	budget := cs.drainMilli / 1000
	cs.drainMilli %= 1000
	r := &cs.ring
	before := r.usedBytes
	n := 0
	for n < len(r.q) {
		it := &r.q[n]
		if it.IsGap() {
			c.export(core, cs, *it)
			n++
			continue
		}
		w := uint64(it.Packet.WireLen)
		if budget < w {
			break
		}
		budget -= w
		r.usedBytes -= w
		c.export(core, cs, *it)
		n++
	}
	r.q = r.q[n:]
	// Close an open loss episode once the exporter has caught up, even if
	// nothing new is being generated. The episode's end time is when the
	// buffer crossed the resume threshold — interpolated within the drain
	// interval, since the exporter works linearly in time.
	resumeAt := r.capBytes * uint64(c.cfg.ResumePercent) / 100
	if r.inLoss && r.usedBytes <= resumeAt {
		end := tsc
		if drained := before - r.usedBytes; drained > 0 && before > resumeAt {
			needed := before - resumeAt
			end = prev + (tsc-prev)*needed/drained
		}
		c.closeGap(cs, end)
	}
}

// export hands one drained item onward: appended to the accumulated trace
// in batch mode, buffered toward the next sink chunk in streaming mode.
func (c *Collector) export(core int, cs *coreState, it Item) {
	if c.sink == nil {
		cs.trace.Items = append(cs.trace.Items, it)
		return
	}
	cs.pendingOut = append(cs.pendingOut, it)
	if len(cs.pendingOut) >= c.sinkFlush {
		// Cut chunks at sync boundaries: once the chunk is full, hold it
		// until the next sync packet and cut just before it, so each chunk
		// the stages exchange is a self-contained sync-to-sync decode unit
		// (the decoder resynchronises at chunk start instead of mid-span).
		// PSBPeriodBytes guarantees sync packets keep coming; the 4× slack
		// bounds the chunk if a loss episode delays one.
		if !it.IsGap() && it.Packet.Kind == c.tr.Roles.Sync && len(cs.pendingOut) > 1 {
			sp := cs.pendingOut[len(cs.pendingOut)-1]
			cs.pendingOut = cs.pendingOut[:len(cs.pendingOut)-1]
			c.flushSink(core, cs)
			cs.pendingOut = append(cs.pendingOut, sp)
		} else if len(cs.pendingOut) >= c.sinkFlush*4 {
			c.flushSink(core, cs)
		}
	}
}

// flushSink delivers the core's buffered items to the sink.
func (c *Collector) flushSink(core int, cs *coreState) {
	if len(cs.pendingOut) == 0 {
		return
	}
	items := cs.pendingOut
	cs.pendingOut = nil
	c.sink(core, items)
}

// Finish flushes everything (the exporter catches up after the run) and
// returns the per-core traces. In sink mode the remainder is delivered
// through the sink and the returned traces carry only core numbers.
func (c *Collector) Finish(tsc uint64) []CoreTrace {
	out := make([]CoreTrace, len(c.cores))
	for i := range c.cores {
		cs := &c.cores[i]
		c.flushPending(cs, tsc)
		if cs.ring.inLoss {
			c.closeGap(cs, tsc)
			cs.needResync = false
		}
		for _, it := range cs.ring.q {
			c.export(i, cs, it)
		}
		cs.ring.q = nil
		cs.ring.usedBytes = 0
		if c.sink != nil {
			c.flushSink(i, cs)
		}
		cs.trace.Core = i
		out[i] = cs.trace
	}
	return out
}

// GeneratedBytes returns the total bytes generated (exported + lost).
func (c *Collector) GeneratedBytes() uint64 { return c.genBytes }

// encoder turns logical trace events into packets of one source's
// vocabulary, applying its wire model: branch bits are buffered and packed
// up to MaxTNTBits per packet, and addresses are compressed against the
// last address reported.
type encoder struct {
	tr           *Traits
	pendingBits  uint64
	pendingNBits uint8
	lastIP       uint64
	haveLastIP   bool
}

// flushBranches converts the pending branch bits into a packet, or returns
// false if none are pending.
func (e *encoder) flushBranches() (Packet, bool) {
	if e.pendingNBits == 0 {
		return Packet{}, false
	}
	p := Packet{
		Kind:    e.tr.Roles.Branches,
		Bits:    e.pendingBits,
		NBits:   e.pendingNBits,
		WireLen: e.tr.Wire.BranchLen(e.pendingNBits),
	}
	e.pendingBits, e.pendingNBits = 0, 0
	return p, true
}

// branch appends one branch outcome; it returns a completed packet when
// the buffer fills to MaxTNTBits.
func (e *encoder) branch(taken bool) (Packet, bool) {
	if taken {
		e.pendingBits |= 1 << uint(e.pendingNBits)
	}
	e.pendingNBits++
	if e.pendingNBits == e.tr.MaxTNTBits {
		return e.flushBranches()
	}
	return Packet{}, false
}

// addr builds an address-bearing packet of the given kind, updating the
// compression state. The packet carries the absolute address; the
// compression shows up only in WireLen.
func (e *encoder) addr(kind Kind, ip uint64) Packet {
	n := uint8(8) // the first address after a reset is sent in full
	if e.haveLastIP {
		g := e.tr.Wire.AddrGranule
		diff := ip ^ e.lastIP
		n = g
		for n < 8 && diff>>(8*n) != 0 {
			n += g
		}
	}
	e.lastIP = ip
	e.haveLastIP = true
	return Packet{Kind: kind, IP: ip, WireLen: 1 + n}
}

// time builds a timestamp packet.
func (e *encoder) time(tsc uint64) Packet {
	return Packet{Kind: e.tr.Roles.Time, TSC: tsc, WireLen: e.tr.Wire.TimeLen}
}

// sync builds a synchronisation packet, carrying the timestamp if the
// source's sync packets do, and resets address compression: decoders
// resynchronise there without history.
func (e *encoder) sync(tsc uint64) Packet {
	e.haveLastIP = false
	p := Packet{Kind: e.tr.Roles.Sync, WireLen: e.tr.Wire.SyncLen}
	if e.tr.IsTime(p.Kind) {
		p.TSC = tsc
	}
	return p
}

// reset drops all compression state (used after data loss).
func (e *encoder) reset() {
	e.pendingBits, e.pendingNBits = 0, 0
	e.haveLastIP = false
}
