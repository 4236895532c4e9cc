package fleet

import (
	"encoding/json"
	"errors"
	"io/fs"
	"path/filepath"

	"jportal/internal/ckpt"
)

// stateFileName is the durable membership snapshot inside StateDir. It
// rides the same CRC envelope (internal/ckpt) and crash-atomic write path
// (internal/fsatomic, via ckpt.WriteFile) as the ingest session state, so
// a torn write is detected and falls back to an empty fleet instead of a
// silently wrong one.
const stateFileName = "coordinator.state"

// persistedMember is one node's durable registration.
type persistedMember struct {
	IngestAddr string `json:"ingest_addr"`
	MetricsURL string `json:"metrics_url,omitempty"`
}

// persistedState is the coordinator's durable view: the membership the
// ring is a pure function of, plus the ring epoch so a rehydrated
// coordinator keeps counting epochs forward rather than restarting at
// zero (members can use the epoch to discard stale membership answers).
type persistedState struct {
	RingEpoch int64                      `json:"ring_epoch"`
	Nodes     map[string]persistedMember `json:"nodes"`
}

// persistLocked writes the membership snapshot durably. Callers hold
// c.mu. It is the coordinator's persist-before-ACK half: register only
// acknowledges a membership change after this returns nil. A deposed
// leader is fenced out — it must not clobber the state its successor is
// already writing.
func (c *Coordinator) persistLocked() error {
	if c.cfg.StateDir == "" {
		return nil
	}
	if e := c.cfg.Election; e != nil && !e.IsLeader() {
		return errors.New("fleet: not the leader; refusing to persist membership")
	}
	st := persistedState{RingEpoch: c.ringEpoch, Nodes: make(map[string]persistedMember, len(c.members))}
	for name, m := range c.members {
		st.Nodes[name] = persistedMember{IngestAddr: m.ingestAddr, MetricsURL: m.metricsURL}
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if err := ckpt.WriteFile(c.cfg.fsys(), filepath.Join(c.cfg.StateDir, stateFileName), payload); err != nil {
		return err
	}
	c.dirty = false
	return nil
}

// rehydrateLocked replaces the in-memory membership with the durable
// snapshot. Every rehydrated member gets one full lease to heartbeat in —
// the coordinator was down, so nobody's lease clock was running — and the
// ring comes back exactly as persisted: no rebalance, no epoch bump. A
// missing file is a fresh fleet; a corrupt one is logged and ignored (the
// members re-register within a heartbeat interval anyway).
func (c *Coordinator) rehydrateLocked() {
	if c.cfg.StateDir == "" {
		return
	}
	payload, err := ckpt.ReadFile(c.cfg.fsys(), filepath.Join(c.cfg.StateDir, stateFileName))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.cfg.Logf("fleet: coordinator state unreadable, starting empty: %v", err)
		}
		return
	}
	var st persistedState
	if err := json.Unmarshal(payload, &st); err != nil {
		c.cfg.Logf("fleet: coordinator state undecodable, starting empty: %v", err)
		return
	}
	now := c.cfg.now()
	c.members = make(map[string]*memberEntry, len(st.Nodes))
	for name, m := range st.Nodes {
		c.members[name] = &memberEntry{
			ingestAddr: m.IngestAddr,
			metricsURL: m.MetricsURL,
			deadline:   now.Add(c.cfg.LeaseTTL),
			joinedAt:   now,
		}
	}
	if st.RingEpoch > c.ringEpoch {
		c.ringEpoch = st.RingEpoch
	}
	c.ring = BuildRing(c.memberAddrsLocked())
	c.dirty = false // memory now mirrors disk
	if len(c.members) > 0 {
		c.cfg.Logf("fleet: rehydrated %d node(s) at ring epoch %d from durable state", len(c.members), c.ringEpoch)
	}
}
