package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"jportal"
	"jportal/internal/conc"
	"jportal/internal/core"
	"jportal/internal/metrics"
)

// tally counts operations and their failures. An operation fails on an
// error or on a failed correctness check; the first few failures are
// printed to standard error.
type tally struct {
	attempted, failed int
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintln(os.Stderr, "benchmark: operation failed:", err)
		}
	}
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// spreads reported here match ones recomputed from the result files.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// digestSteps hashes every thread's reconstructed steps (method, PC, TSC
// and whether recovery produced the step), thread by thread. Two analyses
// with equal digests reconstructed the same control flow.
func digestSteps(threads [][]core.Step) (digest uint64, steps int) {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) { h = (h ^ v) * prime }
	mix(uint64(len(threads)))
	for _, ts := range threads {
		mix(uint64(len(ts)))
		for i := range ts {
			s := &ts[i]
			mix(uint64(uint32(s.Method))<<32 | uint64(uint32(s.PC)))
			mix(s.TSC)
			if s.Recovered {
				mix(1)
			}
		}
		steps += len(ts)
	}
	return h, steps
}

func digestAnalysis(an *jportal.Analysis) (uint64, int) {
	threads := make([][]core.Step, len(an.Threads))
	for i, t := range an.Threads {
		threads[i] = t.Steps
	}
	return digestSteps(threads)
}

// overallAccuracy is Figure 7's overall accuracy of an analysis against
// the oracle: each thread's timed breakdown, weighted by the length of the
// thread's true step sequence (the rule internal/experiments applies).
// Threads are scored in parallel.
func overallAccuracy(oracle *jportal.Oracle, an *jportal.Analysis) float64 {
	overall := make([]float64, len(an.Threads))
	weight := make([]float64, len(an.Threads))
	conc.ParallelFor(conc.Workers(0), len(an.Threads), func(i int) {
		t := an.Threads[i]
		if t.Thread >= oracle.NumThreads() {
			return
		}
		truth := oracle.TimedKeys(t.Thread)
		if len(truth) == 0 {
			return
		}
		var decoded, recovered []metrics.TimedKey
		for _, st := range t.Steps {
			k := metrics.TimedKey{Key: metrics.StepKey(int32(st.Method), st.PC), TSC: st.TSC}
			if st.Recovered {
				recovered = append(recovered, k)
			} else {
				decoded = append(decoded, k)
			}
		}
		b := metrics.ComputeBreakdownTimed(truth, lostIntervals(t), decoded, recovered, 8192)
		overall[i], weight[i] = b.Overall*float64(len(truth)), float64(len(truth))
	})
	var sum, wsum float64
	for i := range overall {
		sum += overall[i]
		wsum += weight[i]
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// lostIntervals returns a thread's trace-loss intervals, sorted and merged.
func lostIntervals(t *core.ThreadResult) []metrics.Interval {
	var ivs []metrics.Interval
	for _, f := range t.Flows {
		g := f.Seg.GapBefore
		if g == nil || g.Desync || g.Duration() == 0 {
			continue
		}
		ivs = append(ivs, metrics.Interval{Start: g.Start, End: g.End})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var merged []metrics.Interval
	for _, iv := range ivs {
		if n := len(merged); n > 0 && iv.Start <= merged[n-1].End {
			merged[n-1].End = max(merged[n-1].End, iv.End)
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}
