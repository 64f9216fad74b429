// Command webmeasure runs the full experiment end to end — crawl the
// synthetic web with the paper's five profiles, build and cross-compare the
// dependency trees, and print every table and figure of the evaluation.
//
// Usage:
//
//	webmeasure [-sites N] [-pages N] [-seed N] [-dataset FILE] [-trace FILE] [-quiet]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"webmeasure"
	"webmeasure/internal/metrics"
	"webmeasure/internal/report"
	"webmeasure/internal/trace"
	"webmeasure/internal/version"
)

func main() {
	var (
		sites       = flag.Int("sites", 100, "number of sites to sample across the five rank buckets")
		pages       = flag.Int("pages", 10, "max subpages per site (the paper uses 25)")
		seed        = flag.Int64("seed", 1, "master seed; the whole experiment is reproducible from it")
		dsPath      = flag.String("dataset", "", "also write the raw visit records (JSON Lines) to this file")
		epoch       = flag.Int("epoch", 0, "web snapshot epoch (0 = base; higher = later in time)")
		faults      = flag.String("faults", "", "deterministic fault-injection profile: off, light, or heavy (default off)")
		quiet       = flag.Bool("quiet", false, "suppress crawl progress")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (chrome://tracing)")
		traceJSONL  = flag.String("trace-jsonl", "", "write the span trace as JSON Lines to this file")
		traceSample = flag.Int("trace-sample", 1, "trace one page in N (head-based sampling; 1 = every page)")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		logJSON     = flag.Bool("log-json", false, "emit log records as JSON instead of key=value text")
		showVersion = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}

	logger, err := trace.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "webmeasure: %v\n", err)
		os.Exit(2)
	}

	cfg := webmeasure.Config{Seed: *seed, Sites: *sites, PagesPerSite: *pages, Epoch: *epoch, FaultProfile: *faults}
	var tracer *trace.Tracer
	if *traceOut != "" || *traceJSONL != "" {
		cfg.Metrics = metrics.New()
		tracer = trace.New(trace.Options{Seed: *seed, SampleEvery: *traceSample, Metrics: cfg.Metrics})
		cfg.Tracer = tracer
	}
	if !*quiet {
		cfg.Progress = func(done, total int) {
			if done%50 == 0 || done == total {
				logger.Info("crawl progress", "done", done, "total", total)
			}
		}
	}

	res, err := webmeasure.Run(context.Background(), cfg)
	if err != nil {
		logger.Error("run failed", "error", err.Error())
		os.Exit(1)
	}
	if *dsPath != "" {
		f, err := os.Create(*dsPath)
		if err != nil {
			logger.Error("dataset write failed", "error", err.Error())
			os.Exit(1)
		}
		if err := res.WriteDataset(f); err != nil {
			logger.Error("dataset write failed", "error", err.Error())
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			logger.Error("dataset write failed", "error", err.Error())
			os.Exit(1)
		}
		logger.Info("raw dataset written", "path", *dsPath)
	}
	if tracer != nil {
		report.WriteStageBreakdown(os.Stderr, tracer.StageBreakdown())
		if err := tracer.WriteFiles(*traceOut, *traceJSONL); err != nil {
			logger.Error("trace write failed", "error", err.Error())
			os.Exit(1)
		}
		logger.Info("trace written",
			"traces", tracer.TraceCount(), "spans", tracer.SpanCount(),
			"sample_every", tracer.SampleEvery())
	}
	res.WriteReport(os.Stdout)
}
