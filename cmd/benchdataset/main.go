// Command benchdataset measures the dataset-format trade-off end to end:
// decode throughput (MB/s), full load-and-analyze wall time, and peak
// RSS for the JSONL and columnar encodings of the same crawl, at 1×/4×/
// 16× scale. Every (format, operation, scale) case runs in its own child
// process — re-executing this binary with -case — so getrusage MaxRSS is
// an honest per-case peak, not an artifact of allocator reuse across
// cases. The driver writes the numbers as machine-readable JSON
// (BENCH_dataset.json by default), shape-guarded by
// TestBenchDatasetJSONWellFormed.
//
// Dataset generation also runs in a child (-gen): Linux carries the
// parent's peak RSS into a forked child's ru_maxrss, so a driver that
// crawled in-process would put a ~hundreds-of-MB floor under every
// measurement. The driver itself never touches a dataset.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"webmeasure"
	"webmeasure/internal/dataset"
)

// scales are the dataset sizes measured, as multiples of the base
// (sites=10, pages=4) experiment.
var scales = []int{1, 4, 16}

const (
	baseSites = 10
	basePages = 4
	benchSeed = 11
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdataset", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("out", "BENCH_dataset.json", "output path for the benchmark JSON")
		caseMode = fs.Bool("case", false, "run one measurement case and print its JSON (internal: the driver re-executes itself with this flag)")
		genMode  = fs.Bool("gen", false, "crawl one scale and write both dataset formats (internal, see -case)")
		dir      = fs.String("dir", "", "gen mode: directory to write the dataset files into")
		scale    = fs.Int("scale", 0, "gen mode: dataset scale multiplier")
		input    = fs.String("input", "", "case mode: dataset file to measure")
		op       = fs.String("op", "", "case mode: load (decode only) or analyze (full pipeline)")
		sites    = fs.Int("sites", 0, "case mode: sites the dataset was crawled with")
		pages    = fs.Int("pages", 0, "case mode: pages per site the dataset was crawled with")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *caseMode:
		return runCase(*input, *op, *sites, *pages, stdout, stderr)
	case *genMode:
		return runGen(*dir, *scale, stderr)
	}
	return runDriver(*out, stdout, stderr)
}

// caseResult is one measured (format, op, scale) cell.
type caseResult struct {
	Name    string  `json:"name"`
	Scale   int     `json:"scale"`
	Format  string  `json:"format"`
	Op      string  `json:"op"`
	Sites   int     `json:"sites"`
	Bytes   int64   `json:"bytes"`
	Visits  int     `json:"visits"`
	WallMS  float64 `json:"wall_ms"`
	MBPerS  float64 `json:"mb_per_s"`
	RSSKB   int64   `json:"max_rss_kb"`
}

// dsPath is the naming convention shared by the -gen child and the
// driver.
func dsPath(dir string, scale int, format string) string {
	ext := "jsonl"
	if format == dataset.FormatCol {
		ext = "col"
	}
	return filepath.Join(dir, fmt.Sprintf("ds-%dx.%s", scale, ext))
}

// runGen crawls one scale and writes both encodings of the dataset.
func runGen(dir string, scale int, stderr io.Writer) int {
	if dir == "" || scale <= 0 {
		fmt.Fprintln(stderr, "benchdataset: -gen needs -dir and -scale")
		return 2
	}
	res, err := webmeasure.Run(context.Background(), webmeasure.Config{
		Seed: benchSeed, Sites: baseSites * scale, PagesPerSite: basePages,
	})
	if err != nil {
		fmt.Fprintf(stderr, "benchdataset: crawl: %v\n", err)
		return 1
	}
	if err := writeFile(dsPath(dir, scale, dataset.FormatJSONL), res.WriteDataset); err != nil {
		fmt.Fprintf(stderr, "benchdataset: %v\n", err)
		return 1
	}
	if err := writeFile(dsPath(dir, scale, dataset.FormatCol), res.WriteDatasetCol); err != nil {
		fmt.Fprintf(stderr, "benchdataset: %v\n", err)
		return 1
	}
	return 0
}

// runCase executes one measurement in this process and prints the JSON
// result: open the file, run the operation, report wall time and the
// process's peak RSS.
func runCase(input, op string, sites, pages int, stdout, stderr io.Writer) int {
	f, err := os.Open(input)
	if err != nil {
		fmt.Fprintf(stderr, "benchdataset: %v\n", err)
		return 1
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		fmt.Fprintf(stderr, "benchdataset: %v\n", err)
		return 1
	}

	visits := 0
	start := time.Now()
	switch op {
	case "load":
		ds, err := dataset.ReadAuto(f)
		if err != nil {
			fmt.Fprintf(stderr, "benchdataset: load: %v\n", err)
			return 1
		}
		visits = ds.Len()
	case "analyze":
		res, err := webmeasure.LoadAndAnalyzeContext(context.Background(), f, webmeasure.Config{
			Seed: benchSeed, Sites: sites, PagesPerSite: pages,
		})
		if err != nil {
			fmt.Fprintf(stderr, "benchdataset: analyze: %v\n", err)
			return 1
		}
		visits = res.Dataset().Len()
	default:
		fmt.Fprintf(stderr, "benchdataset: unknown -op %q\n", op)
		return 2
	}
	wall := time.Since(start)

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintf(stderr, "benchdataset: getrusage: %v\n", err)
		return 1
	}
	r := caseResult{
		Bytes:  st.Size(),
		Visits: visits,
		WallMS: float64(wall) / float64(time.Millisecond),
		MBPerS: float64(st.Size()) / (1 << 20) / wall.Seconds(),
		// Linux reports ru_maxrss in KiB.
		RSSKB: ru.Maxrss,
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintf(stderr, "benchdataset: %v\n", err)
		return 1
	}
	return 0
}

// summaryRow compares the two formats at one scale.
type summaryRow struct {
	Scale          int     `json:"scale"`
	Sites          int     `json:"sites"`
	JSONLBytes     int64   `json:"jsonl_bytes"`
	ColBytes       int64   `json:"col_bytes"`
	SizeRatio      float64 `json:"size_ratio"`
	LoadSpeedup    float64 `json:"load_speedup"`
	AnalyzeSpeedup float64 `json:"analyze_speedup"`
	LoadRSSRatio   float64 `json:"load_rss_ratio"`
}

// runDriver generates the datasets at every scale, fans the measurement
// cases out to child processes, and writes the combined JSON.
func runDriver(out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchdataset: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp("", "benchdataset")
	if err != nil {
		fmt.Fprintf(stderr, "benchdataset: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	var cases []caseResult
	var summary []summaryRow
	for _, scale := range scales {
		sites := baseSites * scale
		fmt.Fprintf(stderr, "benchdataset: generating %dx dataset (%d sites)...\n", scale, sites)
		gen := exec.Command(self, "-gen", "-dir", work, "-scale", fmt.Sprint(scale))
		gen.Stderr = stderr
		if err := gen.Run(); err != nil {
			fmt.Fprintf(stderr, "benchdataset: generate %dx: %v\n", scale, err)
			return 1
		}

		byKey := map[string]caseResult{}
		for _, format := range []string{dataset.FormatJSONL, dataset.FormatCol} {
			for _, op := range []string{"load", "analyze"} {
				r, err := runChild(self, dsPath(work, scale, format), op, sites, basePages, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchdataset: %s/%s/%dx: %v\n", op, format, scale, err)
					return 1
				}
				r.Name = fmt.Sprintf("%s/%s/%dx", op, format, scale)
				r.Scale, r.Format, r.Op, r.Sites = scale, format, op, sites
				fmt.Fprintf(stderr, "benchdataset: %-20s %8.1f ms  %7.1f MB/s  %8d KB rss  (%d visits, %d bytes)\n",
					r.Name, r.WallMS, r.MBPerS, r.RSSKB, r.Visits, r.Bytes)
				cases = append(cases, r)
				byKey[format+"/"+op] = r
			}
		}
		jl, cl := byKey["jsonl/load"], byKey["col/load"]
		ja, ca := byKey["jsonl/analyze"], byKey["col/analyze"]
		summary = append(summary, summaryRow{
			Scale:          scale,
			Sites:          sites,
			JSONLBytes:     jl.Bytes,
			ColBytes:       cl.Bytes,
			SizeRatio:      ratio(float64(jl.Bytes), float64(cl.Bytes)),
			LoadSpeedup:    ratio(jl.WallMS, cl.WallMS),
			AnalyzeSpeedup: ratio(ja.WallMS, ca.WallMS),
			LoadRSSRatio:   ratio(float64(jl.RSSKB), float64(cl.RSSKB)),
		})
	}

	doc := struct {
		Cases   []caseResult `json:"cases"`
		Summary []summaryRow `json:"summary"`
	}{Cases: cases, Summary: summary}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchdataset: %v\n", err)
		return 1
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fmt.Fprintf(stderr, "benchdataset: %v\n", err)
		return 1
	}
	for _, s := range summary {
		fmt.Fprintf(stdout, "benchdataset: %2dx (%3d sites): col is %.1fx smaller, loads %.1fx faster, analyzes %.1fx faster, load peak RSS %.1fx lower\n",
			s.Scale, s.Sites, s.SizeRatio, s.LoadSpeedup, s.AnalyzeSpeedup, s.LoadRSSRatio)
	}
	fmt.Fprintf(stdout, "benchdataset: %d cases written to %s\n", len(cases), out)
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runChild re-executes this binary for one case and parses its JSON.
func runChild(self, input, op string, sites, pages int, stderr io.Writer) (caseResult, error) {
	var outBuf bytes.Buffer
	cmd := exec.Command(self, "-case",
		"-input", input, "-op", op,
		"-sites", fmt.Sprint(sites), "-pages", fmt.Sprint(pages))
	cmd.Stdout = &outBuf
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return caseResult{}, err
	}
	var r caseResult
	if err := json.Unmarshal(outBuf.Bytes(), &r); err != nil {
		return caseResult{}, fmt.Errorf("parse case output: %w", err)
	}
	return r, nil
}
