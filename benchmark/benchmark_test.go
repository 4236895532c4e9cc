package main

import (
	"math"
	"regexp"
	"testing"
)

// loadTestSpec reads BENCHMARK.json from the repository root.
func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode checks that BENCHMARK.json lists exactly the metrics
// the benchmark emits, with the same units and directions, and that every
// name and unit is well-formed.
func TestSpecMatchesCode(t *testing.T) {
	s := loadTestSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, spec []specMetric, code []metricDef) {
		if len(spec) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code emits %d", kind, len(spec), len(code))
			return
		}
		for i := range spec {
			if spec[i].Name != code[i].name || spec[i].Unit != code[i].unit || spec[i].Better != code[i].better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, spec[i], code[i])
			}
			if !name.MatchString(spec[i].Name) || !unit.MatchString(spec[i].Unit) {
				t.Errorf("%s: malformed name or unit in %+v", kind, spec[i])
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload, plain and traced, at a tiny subject scale
// with the shortest measured phase, and checks that each run emits every
// metric of its kind exactly once with its unit and that no operation
// failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	o := options{seed: 0x5eed, scale: 0.05, work: t.TempDir()}
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		o.trace = traced
		for _, w := range workloads {
			res, err := measure(w, o)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed", w.name, traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s (trace %v): metric %s = %+v, want a number in %s", w.name, traced, d.name, v, d.unit)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins the quartile rule to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	seeds := make([]uint64, len(a))
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	if v := verdict(a, slower, seeds, seeds, 0.1, true, false); !v.regressed {
		t.Errorf("20%% slower with a 10%% bound: %+v, want a regression", v)
	}
	if v := verdict(a, faster, seeds, seeds, 0.1, true, false); v.regressed || v.text[:8] != "improved" {
		t.Errorf("10%% faster: %+v, want improved", v)
	}
	if v := verdict(a, a, seeds, seeds, 0.01, false, true); v.regressed || v.text != "identical per seed" {
		t.Errorf("same deterministic values: %+v", v)
	}
	noisy := []float64{50, 150, 100, 60, 140, 100, 55, 145, 100, 100}
	if v := verdict(a, noisy, seeds, seeds, 0.1, true, false); v.regressed || v.text[:10] != "unresolved" {
		t.Errorf("spread wider than the bound: %+v, want unresolved", v)
	}
}
