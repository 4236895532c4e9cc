package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"jportal"
	"jportal/internal/core"
	"jportal/internal/fault"
	"jportal/internal/fleet"
	"jportal/internal/scrub"
	"jportal/internal/workload"
)

// cmdChaos runs the fault-injection matrix over one or more subjects and
// prints the coverage-vs-fault-rate table: how much of each program's
// bytecode the pipeline still attributes as the input gets more hostile.
// The run is fully deterministic for a fixed -seed, so two invocations
// with the same flags print byte-identical reports — that property is what
// the CI smoke checks.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	scale := fs.Float64("scale", 0.25, "workload scale")
	seed := fs.Uint64("seed", 42, "fault-injection seed")
	subjects := fs.String("subjects", "fop,avrora,pmd", "comma-separated subject list")
	rates := fs.String("rates", "0,0.5,1,2", "comma-separated fault-rate multipliers")
	cores := fs.Int("cores", 0, "simulated cores (0 = default; fewer cores than threads forces migration)")
	workers := fs.Int("workers", 0, "offline-phase parallelism (0 = GOMAXPROCS)")
	fleetMode := fs.Bool("fleet", false, "inject network faults into an in-process ingest fleet instead of trace-decode faults")
	diskMode := fs.Bool("disk", false, "inject storage faults (ENOSPC, EIO, torn writes) under an in-process ingest server, then scrub and repair")
	sessions := fs.Int("sessions", 2, "sessions pushed per rate (-fleet/-disk)")
	src := fs.String("source", "", sourceFlagHelp()+" (-fleet/-disk)")
	fs.Parse(args)

	rateList, err := parseRates(*rates)
	if err != nil {
		return err
	}
	if *fleetMode && *diskMode {
		return fmt.Errorf("chaos: -fleet and -disk are mutually exclusive")
	}
	if *fleetMode {
		return chaosFleet(*subjects, *scale, *seed, *src, rateList, *sessions)
	}
	if *diskMode {
		return chaosDisk(*subjects, *scale, *seed, *src, rateList, *sessions)
	}
	pcfg := core.DefaultPipelineConfig()
	pcfg.Workers = *workers

	for _, name := range strings.Split(*subjects, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, err := workload.Load(name, workload.Scale(*scale))
		if err != nil {
			return err
		}
		rcfg := jportal.DefaultRunConfig()
		rcfg.CollectOracle = false
		if *cores > 0 {
			rcfg.VM.Cores = *cores
		}
		rows, err := jportal.ChaosTable(s.Program, s.Threads, rcfg, pcfg,
			fault.DefaultMatrix(*seed), rateList)
		if err != nil {
			return err
		}
		fmt.Fprint(os.Stdout, jportal.FormatChaosTable(s.Name, *seed, rows))
		for _, r := range rows {
			if r.Coverage <= 0 {
				return fmt.Errorf("%s: coverage collapsed to %.4f at rate %.2f — degradation is not graceful",
					s.Name, r.Coverage, r.Rate)
			}
		}
	}
	return nil
}

// chaosFleet is `jportal chaos -fleet`: collect a chunked archive per
// subject, then push it through an in-process fleet whose every network
// edge (coordinator control plane, ingest listeners, heartbeats, client
// dials) runs behind a seeded netfault injector, once per rate. The
// table reports outcome invariants only, so it is byte-identical per
// seed — the same property the decode-fault table gives CI.
func chaosFleet(subjects string, scale float64, seed uint64, src string, rates []float64, sessions int) error {
	return eachChaosArchive(subjects, scale, src, func(archive, subj string) error {
		rows, err := fleet.ChaosSweep(fleet.SweepConfig{
			ArchiveDir: archive,
			SourceID:   src,
			Seed:       seed,
			Rates:      rates,
			Sessions:   sessions,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", a...)
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprint(os.Stdout, fleet.FormatSweep(subj, seed, rows))
		for _, r := range rows {
			if r.Identical != r.Sessions {
				return fmt.Errorf("%s: only %d/%d sessions archived byte-identical at rate %.2f — the fleet lost data",
					subj, r.Identical, r.Sessions, r.Rate)
			}
		}
		return nil
	})
}

// chaosDisk is `jportal chaos -disk`: collect a chunked archive per
// subject, push it through an ingest server whose storage runs behind a
// seeded iofault injector, plant a torn-tail victim and a corrupt sealed
// casualty, scrub-and-repair, resume the victim, and report outcome
// invariants only — byte-identical per seed, like the other two tables.
func chaosDisk(subjects string, scale float64, seed uint64, src string, rates []float64, sessions int) error {
	return eachChaosArchive(subjects, scale, src, func(archive, subj string) error {
		rows, err := scrub.DiskSweep(scrub.DiskSweepConfig{
			ArchiveDir: archive,
			SourceID:   src,
			Seed:       seed,
			Rates:      rates,
			Sessions:   sessions,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", a...)
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprint(os.Stdout, scrub.FormatDiskSweep(subj, seed, rows))
		for _, r := range rows {
			// The durability invariant: an upload may fail honestly under
			// sustained injected faults, but a completed one must be
			// byte-identical — and with no faults, everything completes.
			if r.Corrupt > 0 {
				return fmt.Errorf("%s: %d archive(s) completed but are not byte-identical at rate %.2f — silent corruption",
					subj, r.Corrupt, r.Rate)
			}
			if r.Rate == 0 && (r.Completed != r.Sessions || r.Identical != r.Sessions) {
				return fmt.Errorf("%s: %d/%d completed, %d/%d identical with zero faults injected",
					subj, r.Completed, r.Sessions, r.Identical, r.Sessions)
			}
		}
		return nil
	})
}

// eachChaosArchive runs each named subject, seals its chunked archive into
// a temp dir and hands it to fn. Each subject's archive is removed when
// its fn returns, not when the whole sweep does.
func eachChaosArchive(subjects string, scale float64, src string, fn func(archive, subj string) error) error {
	for _, name := range strings.Split(subjects, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := withChaosArchive(name, scale, src, fn); err != nil {
			return err
		}
	}
	return nil
}

// withChaosArchive collects one subject's archive, runs fn over it, and
// removes it.
func withChaosArchive(name string, scale float64, src string, fn func(archive, subj string) error) error {
	prog, threads, subj, err := loadTarget(name, scale)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "jportal-chaos-archive-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	archive := filepath.Join(tmp, subj)
	cfg := jportal.DefaultRunConfig()
	cfg.CollectOracle = false
	cfg.Source = src
	if _, err := jportal.CollectArchive(archive, prog, threads, cfg); err != nil {
		return err
	}
	return fn(archive, subj)
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rates given")
	}
	return out, nil
}
