package metrics

import (
	"testing"
	"testing/quick"
)

func keys(xs ...uint64) []Key { return xs }

func TestLCSBasics(t *testing.T) {
	cases := []struct {
		a, b []Key
		want int
	}{
		{nil, nil, 0},
		{keys(1, 2, 3), nil, 0},
		{keys(1, 2, 3), keys(1, 2, 3), 3},
		{keys(1, 2, 3), keys(3, 2, 1), 1},
		{keys(1, 2, 3, 4), keys(2, 4), 2},
		{keys(1, 3, 5), keys(2, 4, 6), 0},
		{keys(1, 2, 1, 2), keys(2, 1, 2, 1), 3},
	}
	for i, c := range cases {
		if got := LCS(c.a, c.b); got != c.want {
			t.Errorf("case %d: LCS = %d, want %d", i, got, c.want)
		}
	}
}

func TestLCSProperties(t *testing.T) {
	f := func(a, b []uint8) bool {
		ka := make([]Key, len(a))
		for i, x := range a {
			ka[i] = Key(x % 4) // small alphabet forces overlaps
		}
		kb := make([]Key, len(b))
		for i, x := range b {
			kb[i] = Key(x % 4)
		}
		l := LCS(ka, kb)
		if l != LCS(kb, ka) {
			return false // symmetric
		}
		if l > len(ka) || l > len(kb) {
			return false // bounded
		}
		if len(ka) > 0 && string(rune(0)) != "" {
		}
		// Identity: LCS(a, a) == len(a).
		return LCS(ka, ka) == len(ka)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimilarityBounds(t *testing.T) {
	if Similarity(nil, nil, 0) != 1 {
		t.Error("empty vs empty should be 1")
	}
	if Similarity(keys(1), nil, 0) != 0 {
		t.Error("something vs nothing should be 0")
	}
	if s := Similarity(keys(1, 2, 3), keys(1, 2, 3), 0); s != 1 {
		t.Errorf("identical similarity %f", s)
	}
	if s := Similarity(keys(1, 2, 3, 4), keys(1, 2), 0); s != 0.5 {
		t.Errorf("prefix similarity %f", s)
	}
}

func TestSimilarityWindowedMatchesExactOnAlignedStreams(t *testing.T) {
	// A long identical stream must score 1.0 under windowing.
	n := 10_000
	a := make([]Key, n)
	for i := range a {
		a[i] = Key(i % 97)
	}
	if s := Similarity(a, a, 512); s != 1 {
		t.Errorf("windowed identical similarity %f", s)
	}
	// A stream with 10% local substitutions scores close to 0.9.
	b := make([]Key, n)
	copy(b, a)
	for i := 0; i < n; i += 10 {
		b[i] = 1 << 40
	}
	s := Similarity(a, b, 512)
	if s < 0.85 || s > 0.95 {
		t.Errorf("10%% substitution similarity %f", s)
	}
}

func TestTopNIntersection(t *testing.T) {
	a := []int32{1, 2, 3, 4, 5}
	b := []int32{5, 4, 9, 10, 11}
	if got := TopNIntersection(a, b, 5); got != 2 {
		t.Errorf("intersection = %d, want 2", got)
	}
	if got := TopNIntersection(a, b, 1); got != 0 {
		t.Errorf("top-1 intersection = %d, want 0", got)
	}
	if got := TopNIntersection(nil, b, 5); got != 0 {
		t.Error("empty ranking should intersect 0")
	}
}

func TestStepKeyInjective(t *testing.T) {
	f := func(m1, m2, p1, p2 int32) bool {
		if m1 == m2 && p1 == p2 {
			return StepKey(m1, p1) == StepKey(m2, p2)
		}
		return StepKey(m1, p1) != StepKey(m2, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func timedSeq(keys []Key, start, step uint64) []TimedKey {
	out := make([]TimedKey, len(keys))
	for i, k := range keys {
		out[i] = TimedKey{Key: k, TSC: start + uint64(i)*step}
	}
	return out
}

func TestSimilarityByTimeIdentical(t *testing.T) {
	a := timedSeq(keys(1, 2, 3, 4, 5, 6, 7, 8), 100, 10)
	if s := SimilarityByTime(a, a, 50); s != 1 {
		t.Errorf("identical timed similarity %f", s)
	}
}

func TestSimilarityByTimeElisionRobust(t *testing.T) {
	// b is a with every 4th element elided; timestamps preserved. The
	// timed similarity must stay at the true ratio (0.75) even across
	// many windows, where index-proportional windowing would drift.
	n := 20000
	var full, elided []TimedKey
	for i := 0; i < n; i++ {
		tk := TimedKey{Key: Key(i % 61), TSC: uint64(i) * 7}
		full = append(full, tk)
		if i%4 != 0 {
			elided = append(elided, tk)
		}
	}
	s := SimilarityByTime(elided, full, 4096)
	if s < 0.74 || s > 0.76 {
		t.Errorf("timed similarity %f, want ~0.75", s)
	}
}

func TestSimilarityByTimeDisjointTimes(t *testing.T) {
	a := timedSeq(keys(1, 2, 3), 0, 10)
	b := timedSeq(keys(1, 2, 3), 1_000_000, 10)
	if s := SimilarityByTime(a, b, 100); s != 0 {
		t.Errorf("disjoint-time similarity %f", s)
	}
}

func TestSimilarityByTimeEmpty(t *testing.T) {
	if SimilarityByTime(nil, nil, 10) != 1 {
		t.Error("empty/empty")
	}
	if SimilarityByTime(timedSeq(keys(1), 0, 1), nil, 10) != 0 {
		t.Error("one empty")
	}
}

func TestComputeBreakdownTimed(t *testing.T) {
	var truth []TimedKey
	for i := 0; i < 100; i++ {
		truth = append(truth, TimedKey{Key: Key(i), TSC: uint64(i * 10)})
	}
	lost := []Interval{{Start: 400, End: 600}}
	var decoded, recovered []TimedKey
	for i := 0; i < 100; i++ {
		tk := TimedKey{Key: Key(i), TSC: uint64(i * 10)}
		switch {
		case i >= 40 && i < 60:
			if i%2 == 0 {
				recovered = append(recovered, tk)
			}
		default:
			decoded = append(decoded, tk)
		}
	}
	b := ComputeBreakdownTimed(truth, lost, decoded, recovered, 1000)
	if b.PMD != 0.2 || b.DA != 1.0 || b.RA != 0.5 {
		t.Errorf("breakdown: %+v", b)
	}
	wantOverall := 0.8*1.0 + 0.2*0.5
	if diff := b.Overall - wantOverall; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Overall = %f, want %f", b.Overall, wantOverall)
	}
	if b.PD != b.PDC*b.DA || b.PR != b.PMD*b.RA || b.Overall != b.PD+b.PR {
		t.Error("PD/PR/Overall composition broken")
	}
}
