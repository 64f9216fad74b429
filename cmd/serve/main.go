// Command serve runs the measurement job server: a long-running HTTP
// service that accepts experiment specs (POST /v1/jobs), executes them on
// a fixed pool of -workers executors behind a -queue bound (a full queue
// answers 429 with Retry-After), deduplicates identical configurations
// through a deterministic result cache, and exposes Prometheus metrics.
// See the README's "Serving mode" section for a curl walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"webmeasure/internal/drift"
	"webmeasure/internal/service"
	"webmeasure/internal/trace"
	"webmeasure/internal/version"
)

// A client has readHeaderTimeout to send its request headers, and an idle
// keep-alive connection closes after idleTimeout, so a stalled client
// cannot hold a connection for good. Dataset downloads stream, so there is
// no write timeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable body of the command. ready, if non-nil, receives
// the bound listen address once the server accepts connections (the smoke
// test and -addr :0 callers use it to find the port).
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		workers  = fs.Int("workers", 2, "concurrent job executors")
		queue    = fs.Int("queue", 16, "queued-job bound before submissions get 429")
		cache    = fs.Int("cache", 64, "LRU result cache entries (negative disables)")
		maxSites = fs.Int("max-sites", 2000, "largest per-job site count accepted")
		maxPages = fs.Int("max-pages", 100, "largest per-job pages-per-site accepted")
		drain    = fs.Duration("drain", time.Minute, "shutdown grace period for running jobs")
		logLevel = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		logJSON  = fs.Bool("log-json", false, "emit log records as JSON instead of key=value text")

		shardWorkers = fs.String("shard-workers", "", "comma-separated base URLs of peer servers coordinator jobs fan shard jobs out to (empty = run shards in-process)")
		maxShards    = fs.Int("max-shards", 16, "largest per-job shard count accepted")

		monitorEpochs = fs.Int("monitor-epochs", 0, "run the longitudinal drift monitor for N epochs (0 = off)")
		monitorStart  = fs.Int("monitor-start-epoch", 0, "first monitored epoch")
		monitorEvery  = fs.Duration("monitor-interval", 0, "pause between monitored epochs (0 = back to back)")
		monitorSeed   = fs.Int64("monitor-seed", 1, "seed of the monitored experiment")
		monitorSites  = fs.Int("monitor-sites", 20, "sites the monitored experiment crawls per epoch")
		monitorPages  = fs.Int("monitor-pages", 5, "pages per site the monitored experiment crawls")
		monitorFaults = fs.String("monitor-faults", "", "fault profile of the monitored experiment: off, light, or heavy")
		monitorPin    = fs.Int("monitor-pin", -1, "epoch every baseline is additionally diffed against (-1 = the start epoch)")
		stateDir      = fs.String("state-dir", "drift-state", "directory for monitor baselines, deltas, alerts.jsonl, and drift.csv")
		driftRules    = fs.String("drift-rules", "", "JSON file of alert rules (empty = the built-in default rules)")

		showVersion = fs.Bool("version", false, "print the build identity and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String())
		return 0
	}
	logger, err := trace.NewLogger(stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 2
	}

	var peers []string
	for _, w := range strings.Split(*shardWorkers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			peers = append(peers, strings.TrimRight(w, "/"))
		}
	}
	cfg := service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheSize:    *cache,
		Limits:       service.Limits{MaxSites: *maxSites, MaxPagesPerSite: *maxPages, MaxShards: *maxShards},
		Logger:       logger,
		ShardWorkers: peers,
	}
	if *monitorEpochs > 0 {
		mc := &service.MonitorConfig{
			Spec: service.JobSpec{
				Seed:         *monitorSeed,
				Sites:        *monitorSites,
				PagesPerSite: *monitorPages,
				FaultProfile: *monitorFaults,
			},
			Epochs:     *monitorEpochs,
			StartEpoch: *monitorStart,
			Interval:   *monitorEvery,
			StateDir:   *stateDir,
			PinEpoch:   *monitorPin,
		}
		if *driftRules != "" {
			rf, err := os.Open(*driftRules)
			if err != nil {
				fmt.Fprintf(stderr, "serve: %v\n", err)
				return 2
			}
			rules, err := drift.ParseRules(rf)
			rf.Close()
			if err != nil {
				fmt.Fprintf(stderr, "serve: -drift-rules: %v\n", err)
				return 2
			}
			mc.Rules = rules
		}
		cfg.Monitor = mc
		logger.Info("drift monitor enabled",
			"epochs", *monitorEpochs, "start", *monitorStart, "state_dir", *stateDir,
			"sites", *monitorSites, "pages", *monitorPages, "seed", *monitorSeed)
	}
	srv := service.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	fmt.Fprintf(stdout, "serving on http://%s (workers=%d queue=%d cache=%d)\n",
		ln.Addr(), srv.Stats().Workers, *queue, *cache)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "serve: %v\n", err)
			return 1
		}
		return 0
	case <-ctx.Done():
	}

	// Graceful stop: close the listener and idle connections first, then
	// drain the job pool so running measurements finish (or are cut off
	// at the -drain deadline).
	fmt.Fprintln(stderr, "serve: shutting down, draining jobs")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(stderr, "serve: http shutdown: %v\n", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(stderr, "serve: drain incomplete: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "serve: drained cleanly")
	return 0
}
