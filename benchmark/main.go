// Command benchmark measures webmeasure end to end through its public entry
// points: the webmeasure facade (reanalyze), the job service's Go API and
// HTTP handler (service), and the service's drift monitor (monitor). Each
// workload is a closed loop with a fixed, seed-generated op sequence; one
// run prints a single JSON line with the end-to-end metrics (--trace 0) or
// the per-layer metrics of a traced run (--trace 1). See README.md.
//
//	go run . --workload reanalyze --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// smoke shrinks every workload to a few ops (checks stay on) and skips
	// the minimum op count.
	smoke bool
	// dir is the run's scratch directory; spanDir receives traced runs'
	// span files; stderr receives diagnostics. start is when the workload
	// began, the origin of its span times.
	dir     string
	spanDir string
	stderr  io.Writer
	start   time.Time
}

// workloadFunc runs one workload and returns its result.
type workloadFunc func(opts options) (*result, error)

var workloads = map[string]workloadFunc{
	"reanalyze": runReanalyze,
	"service":   runService,
	"monitor":   runMonitor,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var traceFlag int
	fs.StringVar(&opts.workload, "workload", "", "workload to run: reanalyze, service, or monitor")
	fs.Int64Var(&opts.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	fs.IntVar(&opts.seconds, "seconds", 30, "nominal length of the timed phase; sets the op count")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run that reports the per-layer metrics")
	fs.BoolVar(&opts.smoke, "smoke", false, "run a few ops of every workload with all checks on")
	build := fs.String("build-dir", ".bench_build", "directory for scratch files and span output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts.trace = traceFlag == 1
	if opts.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	names := []string{opts.workload}
	if opts.smoke {
		names = []string{"reanalyze", "service", "monitor"}
	} else if workloads[opts.workload] == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want reanalyze, service, or monitor)\n", opts.workload)
		return 2
	}

	for _, name := range names {
		o := opts
		o.workload = name
		o.spanDir = filepath.Join(*build, "spans")
		o.stderr = stderr
		err := os.MkdirAll(*build, 0o755)
		var dir string
		if err == nil {
			dir, err = os.MkdirTemp(*build, "run-"+name+"-")
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		o.dir = dir
		o.start = time.Now()
		res, err := workloads[name](o)
		if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
			err = rmErr
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stderr, "benchmark: %s seed %d: %d ops, %d failed, %.1fs\n",
			name, opts.seed, res.Attempted, res.Failed, time.Since(o.start).Seconds())
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

// errCheck marks an op whose output failed a check.
var errCheck = errors.New("output check failed")
