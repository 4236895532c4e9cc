// Package faultrng is the seeded random stream every fault injector draws
// from: internal/fault (trace contents), internal/netfault (network paths)
// and internal/iofault (storage media). One splitmix64 generator and one
// scope-seeding rule keep the three injectors' determinism contracts the
// same by construction: a fixed seed places every fault identically on
// every run.
package faultrng

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
