// Package metrics scores reconstructed control flow against ground truth:
// the matching degree of Figure 7 (a normalised longest-common-subsequence
// similarity over (method, pc) step streams, computed with windowed
// alignment so million-step traces stay tractable) and the Table 3
// breakdown (PMD/PDC from loss intervals, DA over captured regions, RA over
// lost regions, with PD and PR derived as in the paper).
package metrics

// Key encodes one control-flow step for comparison.
type Key = uint64

// StepKey packs (method, pc) into a Key.
func StepKey(method int32, pc int32) Key {
	return uint64(uint32(method))<<32 | uint64(uint32(pc))
}

// LCS returns the length of the longest common subsequence of a and b
// (O(len(a)*len(b)); use Similarity for long inputs).
func LCS(a, b []Key) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			switch {
			case a[i-1] == b[j-1]:
				cur[j] = prev[j-1] + 1
			case prev[j] >= cur[j-1]:
				cur[j] = prev[j]
			default:
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Similarity returns LCS(a, b) / max(len(a), len(b)) computed with windowed
// alignment: both sequences are cut into windows of the given size and
// aligned pairwise in order. The result is exact for in-order streams whose
// divergences are local (the reconstruction case) and a lower bound in
// general. window <= 0 selects a default of 2048.
func Similarity(a, b []Key, window int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if window <= 0 {
		window = 2048
	}
	den := len(a)
	if len(b) > den {
		den = len(b)
	}
	if len(a) <= window && len(b) <= window {
		return float64(LCS(a, b)) / float64(den)
	}
	// Proportional windowing keeps the two cursors aligned even when the
	// streams have different lengths.
	total := 0
	na, nb := len(a), len(b)
	steps := (den + window - 1) / window
	for s := 0; s < steps; s++ {
		alo, ahi := na*s/steps, na*(s+1)/steps
		blo, bhi := nb*s/steps, nb*(s+1)/steps
		total += LCS(a[alo:ahi], b[blo:bhi])
	}
	return float64(total) / float64(den)
}

// SimilarityByTime scores two timestamped step streams: both are cut into
// buckets of windowCycles by timestamp and aligned bucket-wise with exact
// LCS. Unlike index-proportional windowing, timestamp alignment does not
// drift when one stream is systematically shorter (e.g. debug-info elision
// removes ~14% of decoded steps), so it approaches the true global LCS for
// locally-divergent streams. Buckets larger than maxBucket elements fall
// back to the length-ratio bound to keep the cost quadratic only in the
// window population.
func SimilarityByTime(a, b []TimedKey, windowCycles uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if windowCycles == 0 {
		windowCycles = 4096
	}
	const maxBucket = 6000
	den := len(a)
	if len(b) > den {
		den = len(b)
	}
	total := 0
	ai, bi := 0, 0
	// Buckets advance through both streams in timestamp order.
	start := a[0].TSC
	if b[0].TSC < start {
		start = b[0].TSC
	}
	for ai < len(a) || bi < len(b) {
		end := start + windowCycles
		a0 := ai
		for ai < len(a) && a[ai].TSC < end {
			ai++
		}
		b0 := bi
		for bi < len(b) && b[bi].TSC < end {
			bi++
		}
		na, nb := ai-a0, bi-b0
		switch {
		case na == 0 || nb == 0:
			// nothing to match in this window
		case na > maxBucket || nb > maxBucket:
			if na < nb {
				total += na
			} else {
				total += nb
			}
		default:
			ka := make([]Key, na)
			for i := 0; i < na; i++ {
				ka[i] = a[a0+i].Key
			}
			kb := make([]Key, nb)
			for i := 0; i < nb; i++ {
				kb[i] = b[b0+i].Key
			}
			total += LCS(ka, kb)
		}
		// Skip empty stretches quickly.
		start = end
		var nextA, nextB uint64 = ^uint64(0), ^uint64(0)
		if ai < len(a) {
			nextA = a[ai].TSC
		}
		if bi < len(b) {
			nextB = b[bi].TSC
		}
		next := nextA
		if nextB < next {
			next = nextB
		}
		if next != ^uint64(0) && next > start {
			start = next
		}
	}
	return float64(total) / float64(den)
}

// Breakdown is the Table 3 row for one run.
type Breakdown struct {
	// PMD is the percentage of ground truth falling inside loss episodes.
	PMD float64
	// PDC = 1 - PMD.
	PDC float64
	// DA is the decode/reconstruction accuracy over captured regions.
	DA float64
	// RA is the recovery accuracy over lost regions.
	RA float64
	// PD = PDC * DA and PR = PMD * RA (as the paper's rows compose);
	// Overall = PD + PR is the Figure 7 bar.
	PD, PR, Overall float64
}

// Interval is a half-open time interval [Start, End).
type Interval struct {
	Start, End uint64
}

// Contains reports whether t falls in iv.
func (iv Interval) Contains(t uint64) bool { return t >= iv.Start && t < iv.End }

// TimedKey is a step with its timestamp.
type TimedKey struct {
	Key Key
	TSC uint64
}

// ComputeBreakdownTimed splits truth into captured/lost parts using the
// loss intervals, scores the decoded steps against the captured truth and
// the recovered steps against the lost truth, and composes the Table 3
// row. The decoded part, whose timestamps are measured, is scored with
// timestamp-aligned windows (SimilarityByTime); recovered steps carry
// synthetic (interpolated) timestamps, so RA keeps the index-proportional
// alignment.
func ComputeBreakdownTimed(truth []TimedKey, lost []Interval, decoded, recovered []TimedKey, windowCycles uint64) Breakdown {
	var capturedTruth, lostTruth []TimedKey
	li := 0
	for _, tk := range truth {
		for li < len(lost) && tk.TSC >= lost[li].End {
			li++
		}
		if li < len(lost) && lost[li].Contains(tk.TSC) {
			lostTruth = append(lostTruth, tk)
		} else {
			capturedTruth = append(capturedTruth, tk)
		}
	}
	var b Breakdown
	if len(truth) > 0 {
		b.PMD = float64(len(lostTruth)) / float64(len(truth))
	}
	b.PDC = 1 - b.PMD
	b.DA = SimilarityByTime(decoded, capturedTruth, windowCycles)
	if len(lostTruth) > 0 {
		rk := make([]Key, len(recovered))
		for i := range recovered {
			rk[i] = recovered[i].Key
		}
		lk := make([]Key, len(lostTruth))
		for i := range lostTruth {
			lk[i] = lostTruth[i].Key
		}
		b.RA = Similarity(rk, lk, 2048)
	}
	b.PD = b.PDC * b.DA
	b.PR = b.PMD * b.RA
	b.Overall = b.PD + b.PR
	return b
}

// TopNIntersection returns |topN(a) ∩ topN(b)| where a and b are ranked
// lists (Table 4's hot-method agreement).
func TopNIntersection(a, b []int32, n int) int {
	if len(a) > n {
		a = a[:n]
	}
	if len(b) > n {
		b = b[:n]
	}
	set := make(map[int32]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	c := 0
	for _, x := range b {
		if set[x] {
			c++
		}
	}
	return c
}
