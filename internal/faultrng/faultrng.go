// Package faultrng is the plumbing every fault injector shares:
// internal/fault (trace contents), internal/netfault (network paths) and
// internal/iofault (storage media). One splitmix64 generator and one
// scope-seeding rule keep the three injectors' determinism contracts the
// same by construction: a fixed seed places every fault identically on
// every run. One probability scaler and one per-class injection tally
// keep their Matrix.Scale and metrics counters alike too.
package faultrng

import (
	"sync/atomic"

	"jportal/internal/metrics"
)

// Stream is a splitmix64 generator: tiny, seedable, and good enough to make
// fault placement look arbitrary while staying fully reproducible.
type Stream struct{ state uint64 }

// New returns the stream whose state starts at seed.
func New(seed uint64) Stream { return Stream{state: seed} }

// Derive returns a stream seeded with the first draw of New(seed): one
// splitmix step so nearby seeds decorrelate.
func Derive(seed uint64) Stream {
	s := New(seed)
	return New(s.Next())
}

// Scope returns the stream of a named scope: the seed mixed with an FNV-1a
// hash of the name, then derived, so each scope draws independently of the
// others.
func Scope(seed uint64, name string) Stream {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return Derive(seed ^ h)
}

// Next returns the next 64-bit draw.
func (s *Stream) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Chance returns true with probability p. It draws only when 0 < p < 1.
func (s *Stream) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(s.Next()>>11)/float64(1<<53) < p
}

// Intn returns a value in [0, n).
func (s *Stream) Intn(n int) int { return int(s.Next() % uint64(n)) }

// ScaleProb returns probability p scaled by f, clamped to [0, 1]: the
// per-probability step of every injector's Matrix.Scale.
func ScaleProb(p, f float64) float64 {
	p *= f
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// Class is what a Tally needs of an injector's fault-class enum: classes
// numbered from 0, each with a stable slug and its own metrics counter.
type Class interface {
	~uint8
	Slug() string
	InjectCounterName() string
}

// Tally counts an injector's injections per class and mirrors each one
// into a metrics registry: the injector's total counter plus the class's
// own. Safe for concurrent use.
type Tally[C Class] struct {
	reg    *metrics.Registry
	total  string
	counts []atomic.Int64
}

// NewTally returns a tally over classes [0, n), mirroring into reg (nil:
// counts are still kept internally). The total and per-class counters are
// registered at zero, so they are present — and zero — on rate-0 runs.
func NewTally[C Class](reg *metrics.Registry, total string, n C) *Tally[C] {
	reg.Add(total, 0)
	for c := C(0); c < n; c++ {
		reg.Add(c.InjectCounterName(), 0)
	}
	return &Tally[C]{reg: reg, total: total, counts: make([]atomic.Int64, n)}
}

// Count records one injection of class c.
func (t *Tally[C]) Count(c C) {
	t.counts[c].Add(1)
	t.reg.Add(t.total, 1)
	t.reg.Add(c.InjectCounterName(), 1)
}

// Counts returns per-class injection counts keyed by slug, zeros included.
func (t *Tally[C]) Counts() map[string]int64 {
	out := make(map[string]int64, len(t.counts))
	for i := range t.counts {
		out[C(i).Slug()] = t.counts[i].Load()
	}
	return out
}
