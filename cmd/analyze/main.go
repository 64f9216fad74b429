// Command analyze loads a dataset written by cmd/crawl and regenerates the
// paper's tables and figures from it. The -sites/-pages/-seed flags must
// match the crawl so the universe (filter list, rank sample) is rebuilt
// identically. The analysis fans out over -workers goroutines; its output
// is byte-identical for every worker count. -trace records deterministic
// spans for every analysis stage (vet, build, compare) and prints a
// per-stage breakdown table; diagnostics are structured log records on
// stderr (-log-level, -log-json).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"webmeasure"
	"webmeasure/internal/colstore"
	"webmeasure/internal/dataset"
	"webmeasure/internal/drift"
	"webmeasure/internal/metrics"
	"webmeasure/internal/report"
	"webmeasure/internal/trace"
)

func main() {
	// A first Ctrl-C cancels the analysis context so the worker pool
	// stops between pages and no half-written export is left behind; a
	// second one kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: parse args, analyze, export.
// It returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("i", "dataset.jsonl", "input dataset (jsonl or columnar)")
		format   = fs.String("format", "auto", "input dataset format: auto (sniff the magic bytes), jsonl, or col")
		sites    = fs.Int("sites", 100, "sites used for the crawl")
		pages    = fs.Int("pages", 10, "pages per site used for the crawl")
		seed     = fs.Int64("seed", 1, "seed used for the crawl")
		epoch    = fs.Int("epoch", 0, "epoch used for the crawl (0 = base snapshot)")
		workers  = fs.Int("workers", 0, "analysis worker goroutines (0 = all CPUs)")
		progress = fs.Duration("progress", 10*time.Second, "interval between progress lines on stderr (0 = off)")
		csvDir   = fs.String("csv", "", "also export tables/figures as CSV files into this directory")
		jsonOut  = fs.String("json", "", "also export all results as one JSON bundle to this file")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the analysis to this file (go tool pprof)")
		memProf  = fs.String("memprofile", "", "write a heap profile after the analysis to this file (go tool pprof)")

		baselineOut = fs.String("baseline-out", "", "write this run's drift baseline (per-site third parties, similarity summaries) to this JSON file")
		driftFrom   = fs.String("drift-from", "", "compare against a prior baseline JSON file and print the drift section")
		driftJSON   = fs.String("drift-json", "", "with -drift-from, also write the delta as JSON to this file")

		traceOut    = fs.String("trace", "", "write a Chrome trace-event JSON of the analysis to this file (chrome://tracing)")
		traceJSONL  = fs.String("trace-jsonl", "", "write the span trace as JSON Lines to this file")
		traceSample = fs.Int("trace-sample", 1, "trace one page in N (head-based sampling; 1 = every page)")
		logLevel    = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		logJSON     = fs.Bool("log-json", false, "emit log records as JSON instead of key=value text")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger, err := trace.NewLogger(stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(stderr, "analyze: %v\n", err)
		return 2
	}
	if *driftJSON != "" && *driftFrom == "" {
		fmt.Fprintln(stderr, "analyze: -drift-json requires -drift-from")
		return 2
	}

	if *cpuProf != "" {
		pf, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "analyze: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintf(stderr, "analyze: cpuprofile: %v\n", err)
			pf.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *memProf != "" {
		// Written on the way out so the profile covers the analysis'
		// steady state, after a GC settles what is actually retained.
		defer func() {
			pf, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "analyze: memprofile: %v\n", err)
				return
			}
			defer pf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(pf); err != nil {
				fmt.Fprintf(stderr, "analyze: memprofile: %v\n", err)
			}
		}()
	}

	f, err := os.Open(*in)
	if err != nil {
		logger.Error("analysis failed", "error", err.Error())
		return 1
	}
	defer f.Close()

	// -format=jsonl/col asserts the input's detected format; the load
	// itself always dispatches on the magic bytes.
	head := make([]byte, len(colstore.Magic))
	n, _ := f.ReadAt(head, 0)
	detected := dataset.FormatJSONL
	if colstore.Sniff(head[:n]) {
		detected = dataset.FormatCol
	}
	switch *format {
	case "auto":
	case dataset.FormatJSONL, dataset.FormatCol:
		if *format != detected {
			fmt.Fprintf(stderr, "analyze: -format=%s but %s is a %s dataset\n", *format, *in, detected)
			return 2
		}
	default:
		fmt.Fprintf(stderr, "analyze: unknown -format %q (want auto, jsonl, or col)\n", *format)
		return 2
	}

	reg := metrics.New()
	var tracer *trace.Tracer
	if *traceOut != "" || *traceJSONL != "" {
		tracer = trace.New(trace.Options{Seed: *seed, SampleEvery: *traceSample, Metrics: reg})
	}
	stopProgress := metrics.StartProgress(ctx, stderr, reg, *progress)
	res, err := webmeasure.LoadAndAnalyzeContext(ctx, f, webmeasure.Config{
		Seed: *seed, Sites: *sites, PagesPerSite: *pages, Epoch: *epoch,
		Workers: *workers, Metrics: reg, Tracer: tracer,
	})
	stopProgress()
	if err != nil {
		logger.Error("analysis failed", "error", err.Error())
		return 1
	}
	res.WriteReport(stdout)
	if *baselineOut != "" || *driftFrom != "" {
		// The baseline/delta pair is the longitudinal half of the analysis:
		// -baseline-out persists this epoch's snapshot, -drift-from diffs it
		// against a prior epoch's and appends the drift section.
		b := res.DriftBaseline()
		if *baselineOut != "" {
			data, err := b.Encode()
			if err == nil {
				err = os.WriteFile(*baselineOut, data, 0o644)
			}
			if err != nil {
				logger.Error("baseline export failed", "error", err.Error())
				return 1
			}
			logger.Info("baseline written", "path", *baselineOut, "epoch", b.Meta.Epoch)
		}
		if *driftFrom != "" {
			prevData, err := os.ReadFile(*driftFrom)
			if err != nil {
				logger.Error("drift comparison failed", "error", err.Error())
				return 1
			}
			prev, err := drift.DecodeBaseline(prevData)
			if err != nil {
				logger.Error("drift comparison failed", "error", err.Error())
				return 1
			}
			d, err := drift.Diff(prev, b)
			if err != nil {
				logger.Error("drift comparison failed", "error", err.Error())
				return 1
			}
			fmt.Fprintln(stdout)
			report.WriteDriftSection(stdout, d, nil)
			if *driftJSON != "" {
				data, err := d.Encode()
				if err == nil {
					err = os.WriteFile(*driftJSON, data, 0o644)
				}
				if err != nil {
					logger.Error("drift export failed", "error", err.Error())
					return 1
				}
				logger.Info("drift delta written", "path", *driftJSON)
			}
		}
	}
	logger.Info("metrics", "snapshot", fmt.Sprint(reg.Snapshot()))
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
	if *jsonOut != "" {
		jf, err := os.Create(*jsonOut)
		if err != nil {
			logger.Error("json export failed", "error", err.Error())
			return 1
		}
		if err := res.WriteJSON(jf); err != nil {
			logger.Error("json export failed", "error", err.Error())
			return 1
		}
		if err := jf.Close(); err != nil {
			logger.Error("json export failed", "error", err.Error())
			return 1
		}
		logger.Info("json bundle written", "path", *jsonOut)
	}
	if *csvDir != "" {
		if err := res.WriteCSVFiles(*csvDir); err != nil {
			logger.Error("csv export failed", "error", err.Error())
			return 1
		}
		logger.Info("csv files written", "dir", *csvDir)
	}
	return 0
}
