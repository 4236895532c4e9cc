// Command benchmark is the repository's end-to-end benchmark. It collects
// a seeded JPortal trace archive for each workload, then replays it through
// the offline pipeline (replay-*) or pushes it through the ingest server
// (ingest-h2), checks every output against a reference, and prints every
// metric named in BENCHMARK.json. With -trace 1 it instead drives each
// layer's public functions one call at a time and reports per-layer
// metrics. See README.md.
//
//	bash benchmark/run.sh --workload replay-h2 --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh                      # all four workloads, seed 0x5eed
//	bash benchmark/run.sh -compare A.jsonl -- B.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
	out      string
	label    string
	// work is the scratch directory for archives and ingest data.
	work string
	// scale multiplies every subject's size; 1 outside the smoke test.
	scale float64
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// env describes the machine a run measured.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Storage    string `json:"storage"`
}

// record is one workload's result with its provenance, as stored by -out
// and read by -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Label    string `json:"label,omitempty"`
	Env      env    `json:"env"`
	result
}

func main() {
	var o options
	var traceFlag int
	compare := flag.Bool("compare", false, "compare result files: -compare A... -- B... (or one file holding two labels)")
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all of them)")
	flag.Uint64Var(&o.seed, "seed", 0x5eed, "input seed: the JIT salt of every collection")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1, write every span to this file (JSON lines)")
	flag.StringVar(&o.out, "out", "", "append each workload's result record to this file (JSON lines)")
	flag.StringVar(&o.label, "label", "", "label stored in result records, grouping runs for -compare")
	flag.Parse()
	o.scale = 1
	o.work = filepath.Join(".bench_build", "work")

	if *compare {
		code, err := runCompare(os.Stdout, "BENCHMARK.json", flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		os.Exit(code)
	}
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run that completed but whose outputs failed a
// correctness check.
var errIncorrect = errors.New("outputs failed the correctness checks")

// run measures the selected workloads and prints their results, the last
// line being the one JSON result object. It returns errIncorrect when any
// operation failed.
func run(o options) error {
	specs := workloads
	if o.workload != "" {
		w, ok := lookupWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
		}
		specs = []workloadSpec{w}
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	e := env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Storage:    storageType(o.work),
	}
	envLine, _ := json.Marshal(e)
	fmt.Printf("env %s\n", envLine)

	var recs []record
	for _, w := range specs {
		res, err := measure(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rec := record{Workload: w.name, Seed: o.seed, Trace: o.trace, Label: o.label, Env: e, result: res}
		printMetrics(w.name, res)
		if o.out != "" {
			if err := appendRecord(o.out, rec); err != nil {
				return err
			}
		}
		recs = append(recs, rec)
	}

	final := recs[0].result
	if len(recs) > 1 {
		// One process, several workloads: the result line names each
		// metric by workload.
		final = result{Correct: true, Metrics: map[string]metricValue{}}
		for _, r := range recs {
			final.Correct = final.Correct && r.Correct
			final.Attempted += r.Attempted
			final.Failed += r.Failed
			for name, v := range r.Metrics {
				final.Metrics[r.Workload+"/"+name] = v
			}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !final.Correct {
		return errIncorrect
	}
	return nil
}

// printMetrics prints one workload's metrics, one per line, sorted.
func printMetrics(workload string, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-14s %-26s %14.4f %s\n", workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Printf("%-14s %-26s %d of %d failed, correct=%v\n", workload, "ops", r.Failed, r.Attempted, r.Correct)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storageType names the filesystem holding dir: ingest latency is
// dominated by its fsync cost, so results record it.
func storageType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-%#x", uint64(st.Type))
}
