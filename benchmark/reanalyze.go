package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"webmeasure"
	"webmeasure/internal/colstore"
	"webmeasure/internal/core"
	"webmeasure/internal/dataset"
	"webmeasure/internal/tree"
	"webmeasure/internal/urlutil"
)

// The reanalyze workload: one caller re-analyzes stored columnar datasets
// through the facade, as cmd/analyze does. It is the only workload on the
// read side of dataset/colstore and on tree's KeyCache fast path, and it
// never crawls. The inputs are small (10 sites) and many (16), so the
// work of one cycle through them varies little from one workload seed to
// the next: over 12 seeds, requests per cycle varied with a coefficient of
// variation of 5.1% for four 20-site inputs, 3.4% for eight 10-site ones
// and 3.1% for sixteen.
const (
	reanalyzeInputs = 16
	reanalyzeSites  = 10
	reanalyzePages  = 4
	reanalyzeRate   = 7.4 // ops/s on a 2-core VM; sizes the op count
	reanalyzeWarmup = 4   // untimed ops at the end of each set-up
)

// reanalyzeInput is one stored dataset plus the bytes webmeasure.Run
// rendered for it, which every re-analysis must reproduce.
type reanalyzeInput struct {
	path              string
	cfg               webmeasure.Config
	report, json, csv []byte
	size              int64
}

// reanalyzeConfig is the experiment behind input i; the analysis runs on
// one worker.
func reanalyzeConfig(seed int64, i int) webmeasure.Config {
	return webmeasure.Config{
		Seed:         deriveSeed(seed, "reanalyze", i),
		Sites:        reanalyzeSites,
		PagesPerSite: reanalyzePages,
		Workers:      1,
		SiteWorkers:  1,
	}
}

// makeReanalyzeInputs crawls and analyzes every input once, stores its
// dataset in the columnar format, and keeps the rendered outputs.
func makeReanalyzeInputs(ctx context.Context, dir string, seed int64) ([]*reanalyzeInput, error) {
	inputs := make([]*reanalyzeInput, reanalyzeInputs)
	for i := range inputs {
		cfg := reanalyzeConfig(seed, i)
		res, err := webmeasure.Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		in := &reanalyzeInput{path: filepath.Join(dir, fmt.Sprintf("input-%d.col", i)), cfg: cfg}
		var col bytes.Buffer
		if err := res.WriteDatasetCol(&col); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		if err := os.WriteFile(in.path, col.Bytes(), 0o644); err != nil {
			return nil, err
		}
		in.size = int64(col.Len())
		var out renderBufs
		if err := out.render(res); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		in.report, in.json, in.csv = out.copies()
		inputs[i] = in
	}
	return inputs, nil
}

// renderBufs holds an op's rendered report, JSON bundle, and CSV tables;
// reusing them across ops keeps the harness's own allocations out of the
// measurement.
type renderBufs struct{ report, json, csv bytes.Buffer }

func (b *renderBufs) render(res *webmeasure.Results) error {
	b.report.Reset()
	b.json.Reset()
	b.csv.Reset()
	res.WriteReport(&b.report)
	if err := res.WriteJSON(&b.json); err != nil {
		return err
	}
	return res.WriteCSV(&b.csv)
}

func (b *renderBufs) copies() (report, json, csv []byte) {
	return bytes.Clone(b.report.Bytes()), bytes.Clone(b.json.Bytes()), bytes.Clone(b.csv.Bytes())
}

// matches reports whether the buffers hold exactly the input's outputs.
func (b *renderBufs) matches(in *reanalyzeInput) error {
	switch {
	case !bytes.Equal(b.report.Bytes(), in.report):
		return fmt.Errorf("%w: report differs from Run's", errCheck)
	case !bytes.Equal(b.json.Bytes(), in.json):
		return fmt.Errorf("%w: JSON differs from Run's", errCheck)
	case !bytes.Equal(b.csv.Bytes(), in.csv):
		return fmt.Errorf("%w: CSV differs from Run's", errCheck)
	}
	return nil
}

// reanalyzeOp is one op: open the stored file, load and analyze it through
// its footer index, render all three outputs, and check them.
func reanalyzeOp(ctx context.Context, in *reanalyzeInput, out *renderBufs) error {
	f, err := os.Open(in.path)
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := webmeasure.LoadAndAnalyzeContext(ctx, f, webmeasure.Config{
		Seed:         in.cfg.Seed,
		Sites:        in.cfg.Sites,
		PagesPerSite: in.cfg.PagesPerSite,
		Workers:      1,
	})
	if err != nil {
		return err
	}
	if err := out.render(res); err != nil {
		return err
	}
	return out.matches(in)
}

func runReanalyze(o options) (*result, error) {
	ctx := context.Background()
	var out renderBufs
	var inputs []*reanalyzeInput
	var setups []float64
	// Set-up: generate the inputs and warm up with a few ops.
	for r := 0; r < setupRepeats; r++ {
		start := time.Now()
		var err error
		inputs, err = makeReanalyzeInputs(ctx, o.dir, o.seed)
		if err != nil {
			return nil, err
		}
		for _, in := range inputs[:reanalyzeWarmup] {
			// A failed output check fails the timed ops that repeat it.
			if err := reanalyzeOp(ctx, in, &out); err != nil && !errors.Is(err, errCheck) {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	n := opCount(o, reanalyzeRate, reanalyzeInputs)
	var tally outcome
	phase := timedPhase{latenciesMS: make([]float64, 0, n)}
	before := readUsage()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := reanalyzeOp(ctx, inputs[i%len(inputs)], &out)
		phase.latenciesMS = append(phase.latenciesMS, msSince(t0))
		tally.op(i, err)
	}
	phase.add(before, readUsage())
	m := endToEnd(setups, phase)
	if o.trace {
		lm, err := traceReanalyze(ctx, o, inputs, phase, &tally)
		if err != nil {
			return nil, err
		}
		m = lm
	}
	reportErrors(o, tally)
	return tally.result(m), nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// reportErrors prints the first few op failures to standard error.
func reportErrors(o options, t outcome) {
	for _, e := range t.errs {
		fmt.Fprintf(o.stderr, "benchmark: %s: %s\n", o.workload, e)
	}
}

// traceReanalyze replays the first ops of a reanalyze run.
func traceReanalyze(ctx context.Context, o options, inputs []*reanalyzeInput, phase timedPhase, t *outcome) (map[string]metric, error) {
	extra := runtimeMetrics(phase, len(phase.latenciesMS))
	tr := newTracer(o.start)
	rp := newReplayer(ctx, tr)
	n := replayCount(o, len(phase.latenciesMS))
	var out renderBufs
	err := rp.replaying(func() error {
		for i := 0; i < n; i++ {
			if err := rp.replayLoad(i+1, inputs[i%len(inputs)], &out); err != nil {
				if !errorsIsCheck(err) {
					return err
				}
				t.fail(i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	extra["input.distinct_specs"] = float64(len(inputs))
	if err := tr.write(spanFile(o)); err != nil {
		return nil, err
	}
	return layerMetrics(tr, rp, n, len(phase.latenciesMS), extra), nil
}

// replayLoad repeats LoadAndAnalyzeContext's columnar path on one input —
// open through the footer index, decode each site block, feed the
// streaming analysis — then the rendering, and checks the bytes against
// Run's.
func (rp *replayer) replayLoad(op int, in *reanalyzeInput, out *renderBufs) error {
	root := rp.tr.begin(op, 0, "replay.Reanalyze")
	defer rp.tr.end(root)
	defer rp.endOp()
	file, err := os.Open(in.path)
	if err != nil {
		return err
	}
	defer file.Close()
	var colr *colstore.Reader
	if err := rp.tr.call(op, root, "dataset.OpenCol", func() (err error) {
		colr, err = dataset.OpenCol(file, in.size)
		return err
	}); err != nil {
		return err
	}
	rp.counts["colstore.bytes"] += float64(in.size)
	f, err := rp.frame(op, root, in.cfg)
	if err != nil {
		return err
	}
	ds := dataset.New()
	var stream *core.Stream
	if err := rp.tr.call(op, root, "core.NewStream", func() (err error) {
		stream, err = core.NewStream(ds, f.filter, core.Options{
			Profiles: f.names, SiteRank: f.ranks, Workers: 1, Metrics: rp.reg, Context: rp.ctx,
		})
		return err
	}); err != nil {
		return err
	}
	builder := &tree.Builder{Filter: f.filter}
	for bi := range colr.Index().Blocks {
		var sb *colstore.SiteBlock
		if err := rp.tr.call(op, root, "colstore.Reader.Block", func() (err error) {
			sb, err = colr.Block(bi)
			return err
		}); err != nil {
			return err
		}
		var keys *urlutil.KeyCache
		_ = rp.tr.call(op, root, "colstore.SiteBlock.KeyCache", func() error {
			keys = sb.KeyCache()
			return nil
		})
		groups := dataset.GroupVisits(sb.Visits)
		addID := rp.tr.begin(op, root, "core.Stream.AddSite")
		for _, v := range sb.Visits {
			ds.Add(v)
		}
		err := stream.AddSite(sb.Site, groups, keys)
		rp.tr.end(addID)
		if err != nil {
			return err
		}
		rp.replayTrees(op, addID, groups, f.names, builder, keys)
		rp.countInput(sb.Visits)
	}
	var a *core.Analysis
	if err := rp.tr.call(op, root, "core.Stream.Finish", func() (err error) {
		a, err = stream.Finish()
		return err
	}); err != nil {
		return err
	}
	if err := rp.render(op, root, a, f.boundaries, out); err != nil {
		return err
	}
	if err := out.matches(in); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	return nil
}
