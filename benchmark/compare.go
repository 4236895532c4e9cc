package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specMetric is one metric of BENCHMARK.json; per-layer metrics have no
// bound.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// deterministic metrics repeat exactly for a given seed, so -compare
// checks them per seed instead of by spread.
var deterministic = map[string]bool{"slowdown_x": true, "accuracy_pct": true}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads result records from a file holding either one JSON
// array of records or one record per line.
func loadRecords(path string) ([]record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	raw = bytes.TrimSpace(raw)
	var recs []record
	if bytes.HasPrefix(raw, []byte("[")) {
		err = json.Unmarshal(raw, &recs)
	} else {
		dec := json.NewDecoder(bytes.NewReader(raw))
		for dec.More() {
			var r record
			if err = dec.Decode(&r); err != nil {
				break
			}
			recs = append(recs, r)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// compareSides splits the -compare arguments into the parent (A) and the
// change (B) records. "A... -- B..." names both sides; without "--" the
// records of the named files must carry exactly two labels, the first
// seen being A.
func compareSides(args []string) (a, b []record, err error) {
	split := -1
	for i, arg := range args {
		if arg == "--" {
			split = i
		}
	}
	load := func(paths []string) ([]record, error) {
		var out []record
		for _, p := range paths {
			recs, err := loadRecords(p)
			if err != nil {
				return nil, err
			}
			for _, r := range recs {
				if !r.Trace {
					out = append(out, r)
				}
			}
		}
		return out, nil
	}
	if split >= 0 {
		if a, err = load(args[:split]); err == nil {
			b, err = load(args[split+1:])
		}
		return a, b, err
	}
	all, err := load(args)
	if err != nil {
		return nil, nil, err
	}
	var labels []string
	for _, r := range all {
		if len(labels) == 0 || (r.Label != labels[0] && (len(labels) == 1 || r.Label != labels[1])) {
			labels = append(labels, r.Label)
		}
	}
	if len(labels) != 2 {
		return nil, nil, fmt.Errorf("-compare without -- needs records with exactly two labels, found %q", labels)
	}
	for _, r := range all {
		if r.Label == labels[0] {
			a = append(a, r)
		} else {
			b = append(b, r)
		}
	}
	return a, b, nil
}

// runCompare applies the bounds in the spec to every (workload, end-to-end
// metric) pair: it prints each side's median and quartiles, the change in
// the metric's "worse" direction, and a verdict. It returns exit code 1
// when any pair regressed past its bound.
func runCompare(w io.Writer, specPath string, args []string) (int, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return 0, err
	}
	a, b, err := compareSides(args)
	if err != nil {
		return 0, err
	}
	if len(a) == 0 || len(b) == 0 {
		return 0, fmt.Errorf("-compare needs records on both sides (have %d and %d)", len(a), len(b))
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-15s %3s %28s %3s %28s %8s %6s  %s\n",
		"workload", "metric", "nA", "A median [q1, q3]", "nB", "B median [q1, q3]", "worse", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			av, aSeeds := values(a, wl.name, m.Name)
			bv, bSeeds := values(b, wl.name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			lower := m.Better == "lower"
			v := verdict(av, bv, aSeeds, bSeeds, m.Bound, lower, deterministic[m.Name])
			if v.regressed {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-15s %3d %28s %3d %28s %+7.2f%% %5.1f%%  %s\n",
				wl.name, m.Name, len(av), summary(av), len(bv), summary(bv), 100*v.worse, 100*m.Bound, v.text)
		}
	}
	return code, nil
}

func values(recs []record, workload, metric string) (vs []float64, seeds []uint64) {
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vs = append(vs, m.Value)
			seeds = append(seeds, r.Seed)
		}
	}
	return vs, seeds
}

func summary(vs []float64) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(vs), q1, q3)
}

type compareVerdict struct {
	worse     float64 // change of the B median from the A median, as a share, positive = worse
	regressed bool
	text      string
}

// verdict judges one metric on one workload. A regression is a median
// worse by more than the bound; a gain needs at least ten run pairs, nine
// tenths of them won, and a median difference wider than A's
// interquartile range; a spread wider than the bound leaves the metric
// unresolved unless every B run beats every A run.
func verdict(a, b []float64, aSeeds, bSeeds []uint64, bound float64, lower, exact bool) compareVerdict {
	ma, mb := median(a), median(b)
	v := compareVerdict{worse: (mb - ma) / math.Abs(ma)}
	if !lower {
		v.worse = -v.worse
	}
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	if exact {
		same := true
		bySeed := map[uint64]float64{}
		for i, s := range aSeeds {
			bySeed[s] = a[i]
		}
		for i, s := range bSeeds {
			if x, ok := bySeed[s]; ok && x != b[i] {
				same = false
			}
		}
		switch {
		case same:
			v.text = "identical per seed"
		case v.worse > bound:
			v.regressed, v.text = true, "REGRESSION (deterministic)"
		default:
			v.text = "changed, within bound"
		}
		return v
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / math.Abs(median(xs))
	}
	if spread(a) > bound || spread(b) > bound {
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		worstB, bestA := sb[len(sb)-1], sa[0]
		if !lower {
			worstB, bestA = sb[0], sa[len(sa)-1]
		}
		if better(worstB, bestA) {
			v.text = "better in every run (spread exceeds bound)"
		} else {
			v.text = "unresolved: spread exceeds bound"
		}
		return v
	}
	if v.worse > bound {
		v.regressed, v.text = true, "REGRESSION"
		return v
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(a)
	if pairs >= 10 && v.worse < 0 && 10*wins >= 9*pairs && math.Abs(mb-ma) > q3-q1 {
		v.text = fmt.Sprintf("improved (won %d of %d pairs)", wins, pairs)
	} else {
		v.text = "within bound"
	}
	return v
}
