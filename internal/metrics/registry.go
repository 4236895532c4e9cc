package metrics

import "sync"

// Registry is a process-wide set of named monotonic counters: the export
// surface for the fault-injection and quarantine accounting (DESIGN.md §10).
// Producers (the quarantine ledger, the fault injector, the ingest server)
// Add to named counters; consumers (the ingest /metrics sidecar, the chaos
// report) read a Snapshot. All methods are safe for concurrent use and
// nil-safe: a nil *Registry silently drops updates, so optional wiring needs
// no guards at call sites.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
}

// NewRegistry creates an empty counter registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]int64)}
}

// Default is the process-wide registry. The root Session's quarantine
// ledger and the fault injector mirror their counts here so the ingest
// sidecar can expose them without plumbing.
var Default = NewRegistry()

// Registry counter names the robustness layer reports under (DESIGN.md
// §11). Declared here so producers (the stream replay loop) and the
// sidecar's pre-registration agree on spelling.
const (
	// CounterWatchdogStalls counts stall episodes the replay watchdog
	// detected across analysis sessions in this process.
	CounterWatchdogStalls = "watchdog_stalls"
	// CounterCheckpointsWritten counts session checkpoints durably written
	// by the resumable replay path.
	CounterCheckpointsWritten = "checkpoints_written"
	// CounterNetfaultInjected counts network faults the netfault layer
	// injected (drops, torn connections, partitions, delays), all classes
	// summed; per-class counts live under "netfault_injected_<class>".
	CounterNetfaultInjected = "netfault_injected_total"
	// CounterClientRetryBudget counts uploads that died because the
	// pusher's connect-level retry budget — shared across dial failures,
	// BUSY refusals, REDIRECT hops and reconnects — ran out.
	CounterClientRetryBudget = "client_retry_budget_exhausted"
	// CounterIofaultInjected counts storage faults the iofault layer
	// injected (ENOSPC, EIO, torn writes, slow I/O), all classes summed;
	// per-class counts live under "iofault_injected_<class>".
	CounterIofaultInjected = "iofault_injected_total"
)

// Storage-durability counter names (DESIGN.md §16): the scrubber's scan
// and repair outcomes and the retention reclaim accounting.
const (
	// CounterScrubSessionsScanned counts sessions the scrubber examined.
	CounterScrubSessionsScanned = "scrub_sessions_scanned"
	// CounterScrubBytesVerified counts archive bytes re-verified against
	// record framing and CRC seals.
	CounterScrubBytesVerified = "scrub_bytes_verified"
	// CounterScrubTornTails counts archives repaired by truncating a torn
	// tail back to the last valid record boundary.
	CounterScrubTornTails = "scrub_torn_tails_repaired"
	// CounterScrubRefetched counts sessions restored by re-fetching a
	// sealed copy from the owning fleet node over the ingest protocol.
	CounterScrubRefetched = "scrub_sessions_refetched"
	// CounterScrubQuarantined counts sessions the scrubber moved into the
	// quarantine directory as unrepairable.
	CounterScrubQuarantined = "scrub_sessions_quarantined"
	// CounterScrubReset counts partial uploads the scrubber reset to the
	// archive header so the pusher restarts the session from scratch.
	CounterScrubReset = "scrub_sessions_reset"
	// CounterRetentionDeleted counts sessions removed by the age/quota
	// retention policy.
	CounterRetentionDeleted = "retention_sessions_deleted"
	// CounterRetentionBytes counts bytes reclaimed by retention deletes.
	CounterRetentionBytes = "retention_bytes_reclaimed"
)

// Add increments the named counter by delta (registering it at zero first
// if unseen). Adding zero registers the name without changing its value,
// which the sidecar uses to pre-declare fault-class counters.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Get returns the named counter's value (0 if unregistered).
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Snapshot returns a copy of every registered counter.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}
