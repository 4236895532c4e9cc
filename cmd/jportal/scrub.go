// `jportal scrub` is the storage-durability command: verify every session
// archive under a data directory (record framing, seal CRCs, durable
// frontiers), and in -repair mode fix what verification finds — truncate
// torn tails back to the acknowledged frontier, re-fetch corrupt sealed
// archives from fleet peers, reset corrupt in-flight uploads, and
// quarantine what cannot be repaired.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"jportal/internal/scrub"
)

func cmdScrub(args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	data := fs.String("data", "ingest-data", "data directory holding one chunked archive per session")
	repair := fs.Bool("repair", false, "fix what verification finds (default: report only)")
	rate := fs.Int64("rate", 0, "verification I/O budget in bytes/sec (0 = unpaced)")
	minIdle := fs.Duration("min-idle", 0, "skip sessions modified more recently than this (0 = scrub everything)")
	peers := fs.String("peers", "", "comma-separated peer data directories to re-fetch corrupt sealed archives from")
	retainAge := fs.Duration("retain-age", 0, "after scrubbing, delete finished sessions older than this (0 = keep)")
	retainBytes := fs.Int64("retain-bytes", 0, "after scrubbing, cap the data dir's bytes (0 = unlimited)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("scrub takes no positional arguments (use -data)")
	}

	rep, err := scrub.Run(scrub.Config{
		DataDir:         *data,
		Repair:          *repair,
		RateBytesPerSec: *rate,
		MinIdle:         *minIdle,
		PeerDirs:        splitList(*peers),
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "scrub: "+format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stdout, scrub.FormatReport(rep))

	if *retainAge > 0 || *retainBytes > 0 {
		if !*repair {
			return fmt.Errorf("scrub: -retain-age/-retain-bytes delete data; they require -repair")
		}
		st, err := scrub.ApplyRetention(*data, scrub.RetentionPolicy{
			MaxAge:   *retainAge,
			MaxBytes: *retainBytes,
			Now:      time.Now(),
		}, nil, func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "scrub: "+format+"\n", a...)
		})
		if err != nil {
			return err
		}
		fmt.Printf("retention: %d session(s) deleted, %d bytes reclaimed, %d bytes kept\n",
			st.Deleted, st.BytesReclaimed, st.Kept)
	}

	if rep.Damaged > 0 && !*repair {
		return fmt.Errorf("scrub: %d damaged session(s); re-run with -repair", rep.Damaged)
	}
	return nil
}
