// The networked trace-ingest commands: `jportal serve` runs the ingest
// server that many collection agents push archives to, and `jportal push`
// is such an agent — it replays a local chunked archive (or streams a
// live run with -live) to a server over the frame protocol with
// retry/backoff and resume-from-last-ACK.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"jportal"
	"jportal/internal/bytecode"
	"jportal/internal/experiments"
	"jportal/internal/fleet"
	"jportal/internal/ingest"
	"jportal/internal/ingest/client"
	"jportal/internal/meta"
	"jportal/internal/scrub"
)

// splitList splits a comma-separated flag value into its non-empty parts.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7071", "ingest listen address")
	httpAddr := fs.String("http", "", "observability sidecar address (/healthz, /metrics); empty = disabled")
	data := fs.String("data", "ingest-data", "directory holding one chunked archive per session")
	queue := fs.Int("queue", 64, "per-session inbound queue depth (frames); a full queue blocks the sender")
	drain := fs.Duration("drain", 30*time.Second, "graceful drain budget on SIGINT/SIGTERM")
	maxSessions := fs.Int("max-sessions", 0, "concurrent attached sessions before HELLOs get BUSY (0 = unlimited)")
	budget := fs.Int64("budget", 0, "global queued-payload memory budget in bytes (0 = unlimited)")
	breaker := fs.Int("breaker", 0, "NACKs before a session's circuit breaker poisons it (0 = disabled)")
	stall := fs.Duration("stall", 0, "poison a session whose writer makes no progress for this long (0 = disabled)")
	coordinator := fs.String("coordinator", "", "fleet coordinator control-plane URL(s), comma-separated (leader + standbys); empty = standalone")
	node := fs.String("node", "", "fleet node name (default: hostname)")
	advertise := fs.String("advertise", "", "ingest address advertised to the fleet (default: the -listen address)")
	scrubEvery := fs.Duration("scrub-every", 0, "background archive scrub-and-repair interval (0 = disabled)")
	scrubRate := fs.Int64("scrub-rate", 8<<20, "scrub verification I/O budget in bytes/sec (0 = unpaced)")
	retainAge := fs.Duration("retain-age", 0, "delete finished sessions older than this on each sweep (0 = keep forever)")
	retainBytes := fs.Int64("retain-bytes", 0, "cap the data dir's total bytes, deleting oldest finished sessions first (0 = unlimited)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments")
	}

	srv, err := ingest.NewServer(ingest.Config{
		DataDir:           *data,
		QueueDepth:        *queue,
		MaxSessions:       *maxSessions,
		MemoryBudgetBytes: *budget,
		BreakerNacks:      *breaker,
		StallAfter:        *stall,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "serve: "+format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("jportal serve: listening on %s (data %s, queue %d)\n",
		ln.Addr(), *data, *queue)

	// Background storage durability: scrub-and-repair each interval, then
	// retention. Busy sessions (attached writers) are always skipped.
	var sweeper *scrub.Sweeper
	if *scrubEvery > 0 || *retainAge > 0 || *retainBytes > 0 {
		interval := *scrubEvery
		if interval <= 0 {
			interval = 5 * time.Minute
		}
		sweeper = scrub.StartSweeper(scrub.SweeperConfig{
			Interval: interval,
			Scrub: scrub.Config{
				DataDir:         *data,
				RateBytesPerSec: *scrubRate,
				Busy:            srv.SessionBusy,
			},
			Retention: scrub.RetentionPolicy{
				MaxAge:   *retainAge,
				MaxBytes: *retainBytes,
			},
			Logf: func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, "serve: "+format+"\n", a...)
			},
		})
		fmt.Printf("jportal serve: sweeping %s every %s (retain-age %s, retain-bytes %d)\n",
			*data, interval, *retainAge, *retainBytes)
	}

	var httpSrv *http.Server
	var metricsURL string
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			ln.Close()
			return err
		}
		httpSrv = &http.Server{Handler: srv.Observability()}
		go httpSrv.Serve(hln)
		metricsURL = fmt.Sprintf("http://%s/metrics", hln.Addr())
		fmt.Printf("jportal serve: metrics on %s\n", metricsURL)
	}

	// Fleet membership: register with the coordinator and install the
	// shared hash ring as the router, so HELLOs for sessions owned by a
	// sibling node answer with a REDIRECT instead of ingesting here.
	var member *fleet.Member
	if *coordinator != "" {
		name := *node
		if name == "" {
			if name, err = os.Hostname(); err != nil || name == "" {
				name = fmt.Sprintf("node-%d", os.Getpid())
			}
		}
		adv := *advertise
		if adv == "" {
			adv = ln.Addr().String()
		}
		joinCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		member, err = fleet.Join(joinCtx, fleet.MemberConfig{
			Name:            name,
			CoordinatorURLs: splitList(*coordinator),
			IngestAddr:      adv,
			MetricsURL:      metricsURL,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, "serve: "+format+"\n", a...)
			},
		})
		cancel()
		if err != nil {
			ln.Close()
			return err
		}
		srv.SetRouter(member)
		fmt.Printf("jportal serve: joined fleet at %s as %q (advertising %s)\n", *coordinator, name, adv)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("jportal serve: %v, draining (budget %s)\n", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		// Leave the fleet before draining: the coordinator immediately
		// routes new sessions elsewhere while attached clients finish
		// inside the drain budget.
		if member != nil {
			if derr := member.Drain(ctx); derr != nil {
				fmt.Fprintf(os.Stderr, "serve: fleet deregister failed: %v\n", derr)
			}
		}
		err = srv.Shutdown(ctx)
		cancel()
		<-serveErr
	case err = <-serveErr:
		if member != nil {
			member.Stop()
		}
	}
	if sweeper != nil {
		sweeper.Stop()
	}
	if httpSrv != nil {
		httpSrv.Close()
	}
	if err != nil {
		return err
	}
	m := srv.Metrics()
	fmt.Printf("jportal serve: drained (%d sessions, %d chunks, %dKB ingested)\n",
		m.SessionsTotal.Load(), m.ChunksIngested.Load(), m.BytesIngested.Load()/1024)
	return nil
}

func cmdPush(args []string) error {
	fs := flag.NewFlagSet("push", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7071", "ingest server or coordinator address(es), comma-separated (rotated on connect failure)")
	id := fs.String("id", "", "session id (default: archive directory base name / subject name)")
	chunk := fs.Int("chunk", 0, "max CHUNK frame payload bytes (0 = default)")
	attempts := fs.Int("attempts", 0, "connect attempts before giving up (0 = default)")
	retryBudget := fs.Int("retry-budget", 0, "connect-level retries across the whole upload (0 = default, negative = unlimited)")
	live := fs.Bool("live", false, "argument is a subject/.jasm: run it and stream records live")
	scale := fs.Float64("scale", 1.0, "workload scale (-live)")
	buf := fs.Int("buf", 128, "paper-label buffer size in MB (-live)")
	items := fs.Int("items", 0, "export granularity in trace items, as collect -chunk (0 = default, -live)")
	src := fs.String("source", "", sourceFlagHelp()+" (-live; archive pushes announce their recorded source)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		if *live {
			return fmt.Errorf("need a subject or .jasm file")
		}
		return fmt.Errorf("need a chunked archive directory")
	}
	arg := fs.Arg(0)
	opts := client.Options{
		Addrs:         splitList(*addr),
		SessionID:     *id,
		MaxChunkBytes: *chunk,
		MaxAttempts:   *attempts,
		RetryBudget:   *retryBudget,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "push: "+format+"\n", a...)
		},
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *live {
		prog, threads, name, err := loadTarget(arg, *scale)
		if err != nil {
			return err
		}
		if opts.SessionID == "" {
			opts.SessionID = name
		}
		cfg := jportal.DefaultRunConfig()
		cfg.CollectOracle = false
		cfg.PT.BufBytes = uint64(*buf) << (20 - experiments.BufScaleShift)
		cfg.SinkChunkItems = *items
		cfg.Source = *src
		opts.SourceID = *src
		var sink *client.LiveSink
		run, err := jportal.RunWithSink(prog, threads, cfg,
			func(p *bytecode.Program, snap *meta.Snapshot, ncores int) (jportal.TraceSink, error) {
				var err error
				sink, err = client.NewLiveSink(ctx, opts, p, snap, ncores)
				return sink, err
			})
		if err != nil {
			return err
		}
		if err := sink.Seal(); err != nil {
			return err
		}
		p := sink.Pusher()
		fmt.Printf("%s: live run streamed to %s as session %q (%dKB generated, %d reconnects, %d nacks)\n",
			name, *addr, opts.SessionID, run.GenBytes/1024, p.Reconnects(), p.Nacks())
		return nil
	}

	dir := filepath.Clean(arg)
	if opts.SessionID == "" {
		opts.SessionID = filepath.Base(dir)
	}
	st, err := client.PushArchive(ctx, opts, dir)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted; re-run the same push to resume from the server's last ACK")
		}
		return err
	}
	resumed := ""
	if st.ResumeSeq > 0 {
		resumed = fmt.Sprintf(", resumed past seq %d", st.ResumeSeq)
	}
	fmt.Printf("%s: pushed to %s as session %q (%d frames, %dKB%s, %d reconnects, %d nacks)\n",
		dir, *addr, opts.SessionID, st.Frames, st.Bytes/1024, resumed, st.Reconnects, st.Nacks)
	return nil
}
