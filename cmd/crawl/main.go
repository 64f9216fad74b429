// Command crawl runs only the measurement (no analysis) and streams the
// raw visit records to disk as they are collected — the commander/clients
// half of the paper's framework (Appendix C). Sites are crawled by
// -site-workers concurrent workers and written in site-list order as each
// finishes, so peak memory is bounded by the in-flight crawl window, not
// the dataset size, and the output bytes are identical for every worker
// count. Feed the output to cmd/analyze with the same -sites/-pages/-seed
// flags. While the crawl runs, -progress prints live counter/timing
// snapshots (sites done, visit latency percentiles), and -trace records
// one deterministic span trace per page (load the output in
// chrome://tracing or Perfetto). Diagnostics are structured log records on
// stderr (-log-level, -log-json).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"webmeasure"
	"webmeasure/internal/dataset"
	"webmeasure/internal/metrics"
	"webmeasure/internal/report"
	"webmeasure/internal/trace"
)

func main() {
	// A first Ctrl-C cancels the crawl context so the run stops between
	// site batches instead of dying mid-write; a second one kills the
	// process (NotifyContext unregisters after the context fires).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: parse args, crawl, write the
// dataset. It returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crawl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sites       = fs.Int("sites", 100, "number of sites to sample")
		pages       = fs.Int("pages", 10, "max subpages per site")
		seed        = fs.Int64("seed", 1, "master seed")
		epoch       = fs.Int("epoch", 0, "measurement epoch: the universe deterministically churns per epoch (0 = base snapshot)")
		siteWorkers = fs.Int("site-workers", 0, "concurrent site crawls (0 = all CPUs); output is byte-identical for any value")
		progress    = fs.Duration("progress", 10*time.Second, "interval between progress lines on stderr (0 = off)")
		out         = fs.String("o", "dataset.jsonl", "output path for the dataset")
		format      = fs.String("format", "jsonl", "dataset output format: jsonl or col (compact columnar)")
		resume      = fs.String("resume", "", "checkpoint dataset to continue from, jsonl or col (reuses its successful visits)")
		faults      = fs.String("faults", "", "deterministic fault-injection profile: off, light, or heavy (default off)")
		traceOut    = fs.String("trace", "", "write a Chrome trace-event JSON of the crawl to this file (chrome://tracing)")
		traceJSONL  = fs.String("trace-jsonl", "", "write the span trace as JSON Lines to this file")
		traceSample = fs.Int("trace-sample", 1, "trace one page in N (head-based sampling; 1 = every page)")
		logLevel    = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		logJSON     = fs.Bool("log-json", false, "emit log records as JSON instead of key=value text")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != dataset.FormatJSONL && *format != dataset.FormatCol {
		fmt.Fprintf(stderr, "crawl: unknown -format %q (want jsonl or col)\n", *format)
		return 2
	}
	logger, err := trace.NewLogger(stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(stderr, "crawl: %v\n", err)
		return 2
	}

	reg := metrics.New()
	var tracer *trace.Tracer
	if *traceOut != "" || *traceJSONL != "" {
		tracer = trace.New(trace.Options{Seed: *seed, SampleEvery: *traceSample, Metrics: reg})
	}
	cfg := webmeasure.Config{
		Seed: *seed, Sites: *sites, PagesPerSite: *pages, Epoch: *epoch,
		FaultProfile: *faults,
		SiteWorkers:  *siteWorkers, Metrics: reg, Tracer: tracer,
		Progress: func(done, total int) {
			if done%50 == 0 || done == total {
				logger.Info("crawl progress", "done", done, "total", total)
			}
		},
	}
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			logger.Error("crawl failed", "error", err.Error())
			return 1
		}
		defer f.Close()
		cfg.ResumeJSONL = f
	}
	// The dataset streams to disk while the crawl runs: each site's visits
	// are written as soon as the site is emitted, so a long crawl never
	// holds the whole dataset in memory. A failed run removes the partial
	// file — the command either produces a complete dataset or none.
	f, err := os.Create(*out)
	if err != nil {
		logger.Error("crawl failed", "error", err.Error())
		return 1
	}
	var sink dataset.SiteWriter = dataset.NewJSONLSiteWriter(f)
	if *format == dataset.FormatCol {
		sink = dataset.NewColSiteWriter(f)
	}
	stopProgress := metrics.StartProgress(ctx, stderr, reg, *progress)
	st, err := webmeasure.CrawlStream(ctx, cfg, sink)
	stopProgress()
	if err == nil {
		if cerr := sink.Close(); cerr != nil {
			err = cerr
		} else if cerr := f.Close(); cerr != nil {
			err = cerr
		}
	}
	if err != nil {
		f.Close()
		os.Remove(*out)
		logger.Error("crawl failed", "error", err.Error())
		return 1
	}
	logger.Info("metrics", "snapshot", fmt.Sprint(reg.Snapshot()))
	logger.Info("crawl done",
		"sites", st.SitesVisited, "pages", st.PagesDiscovered,
		"visits", st.VisitsTotal, "failed", st.VisitsFailed, "reused", st.VisitsReused,
		"output", *out)
	if tracer != nil {
		report.WriteStageBreakdown(stderr, tracer.StageBreakdown())
		if err := tracer.WriteFiles(*traceOut, *traceJSONL); err != nil {
			logger.Error("trace write failed", "error", err.Error())
			return 1
		}
		logger.Info("trace written",
			"traces", tracer.TraceCount(), "spans", tracer.SpanCount(),
			"sample_every", tracer.SampleEvery())
	}
	hint := fmt.Sprintf("analyze with: analyze -i %s -sites %d -pages %d -seed %d",
		*out, *sites, *pages, *seed)
	if *epoch != 0 {
		hint += fmt.Sprintf(" -epoch %d", *epoch)
	}
	fmt.Fprintln(stderr, hint)
	return 0
}
