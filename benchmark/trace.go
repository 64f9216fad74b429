package main

// The traced run. After the timed phase, the harness replays the first few
// ops one public layer call at a time, timing each call as a span, and
// checks that every replay reproduces the program's bytes. Replays run on
// one processor (GOMAXPROCS=1) so a span's duration is the work its call
// did; the timed phase before them is untouched. Counts come from the
// replayed calls, from Results.CrawlStats() and from the metrics registry
// the benchmark hands the program, so they repeat exactly between runs.
// This file holds the replayer the workloads share; each workload's own
// replay (traceReanalyze, traceService, traceMonitor) sits next to it.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"

	"webmeasure"
	"webmeasure/internal/browser"
	"webmeasure/internal/core"
	"webmeasure/internal/crawler"
	"webmeasure/internal/dataset"
	"webmeasure/internal/faults"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
	"webmeasure/internal/report"
	"webmeasure/internal/tranco"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
	"webmeasure/internal/urlutil"
	"webmeasure/internal/webgen"
)

// replayedOps is how many of a run's first timed ops the traced run
// replays, per workload.
var replayedOps = map[string]int{"reanalyze": reanalyzeInputs, "service": 32, "monitor": monitorEpochs}

// perLayer lists the traced run's metrics in output order. Timings (_ms)
// are self times per op; counts are per op unless named otherwise.
var perLayer = []struct{ name, unit string }{
	{"webgen.site_ms", "ms"}, {"webgen.sites", "count"},
	{"browser.visit_ms", "ms"}, {"browser.requests", "count"},
	{"crawler.self_ms", "ms"}, {"crawler.visits", "count"},
	{"crawler.attempts_per_visit", "ratio"}, {"crawler.failed_share", "ratio"},
	{"faults.injected", "count"},
	{"colstore.decode_ms", "ms"}, {"colstore.decode_mb_per_s", "MB/s"},
	{"service.artifact_ms", "ms"}, {"service.artifact_mb", "MB"},
	{"tree.build_ms", "ms"}, {"tree.trees", "count"}, {"tree.nodes", "count"},
	{"treediff.compare_ms", "ms"}, {"treediff.union_nodes", "count"},
	{"core.self_ms", "ms"}, {"core.vetted_share", "ratio"},
	{"core.derived_ms", "ms"}, {"core.attribution_ms", "ms"},
	{"report.self_ms", "ms"}, {"report.mb", "MB"},
	{"drift.snapshot_ms", "ms"}, {"drift.diff_ms", "ms"}, {"drift.persist_ms", "ms"}, {"drift.alerts", "count"},
	{"service.queue_wait_ms", "ms"}, {"service.run_ms", "ms"}, {"service.job_self_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"}, {"service.retained_mb_per_job", "MB"},
	{"runtime.gc_cpu_ms_per_op", "ms"}, {"runtime.heap_live_mb", "MB"},
	{"input.visits", "count"}, {"input.requests", "count"},
	{"input.filter_keys_max", "count"}, {"input.distinct_specs", "count"},
	{"trace.op_p50_ms", "ms"},
}

// layerSpans maps each per-layer timing to the span names whose self
// times it sums. The analysis environment (universe, rank list, filter
// list) that every load or run rebuilds counts as core's own time.
var layerSpans = map[string][]string{
	"webgen.site_ms":      {"webgen.Universe.GenerateSiteAt"},
	"browser.visit_ms":    {"browser.Browser.VisitAttempt"},
	"crawler.self_ms":     {"crawler.Run"},
	"colstore.decode_ms":  {"dataset.OpenCol", "colstore.Reader.Block", "colstore.SiteBlock.KeyCache"},
	"service.artifact_ms": {"dataset.Dataset.WriteCol", "dataset.Dataset.StreamJSONL"},
	"tree.build_ms":       {"tree.Builder.Build", "tree.Builder.BuildKeyed"},
	"treediff.compare_ms": {"treediff.Compare"},
	"core.self_ms": {"webgen.New", "tranco.Sample", "filterlist.Parse", "core.NewStream",
		"core.Stream.AddSite", "core.Stream.Finish", "webmeasure.AnalyzeContext"},
	"core.derived_ms":       {"core.Analysis.Export", "webmeasure.Results.Summary", "core.Analysis.TrackingStudy", "core.Analysis.TreeOverview"},
	"core.attribution_ms":   {"core.Analysis.Attribution"},
	"report.self_ms":        {"report.Render"},
	"drift.snapshot_ms":     {"drift.Snapshot"},
	"drift.diff_ms":         {"drift.Diff", "drift.Engine.Evaluate"},
	"drift.persist_ms":      {"drift.Baseline.Encode", "drift.Persist"},
	"service.queue_wait_ms": {"service.QueueWait"},
	"service.run_ms":        {"service.Run", "webmeasure.Run"},
	"service.job_self_ms":   {"service.Op", "service.MonitorEpoch"},
}

// replayer replays ops' layer calls under a tracer and tallies exact
// counts over the replayed ops.
type replayer struct {
	ctx    context.Context
	tr     *tracer
	reg    *metrics.Registry // receives the replayed calls' counters
	counts map[string]float64
	// opKeys collects the current op's unique filter-match keys (URL, page
	// host, type: the match memo's key); filterKeysMax is the most any
	// replayed op needed.
	opKeys        map[string]struct{}
	filterKeysMax int
}

func newReplayer(ctx context.Context, tr *tracer) *replayer {
	return &replayer{ctx: ctx, tr: tr, reg: metrics.New(), counts: make(map[string]float64), opKeys: make(map[string]struct{})}
}

// replaying runs fn with replay spans on one processor.
func (rp *replayer) replaying(fn func() error) error {
	prev := runtime.GOMAXPROCS(1)
	rp.tr.replay = true
	defer func() {
		rp.tr.replay = false
		runtime.GOMAXPROCS(prev)
	}()
	return fn()
}

// frame rebuilds the scaffolding every load and run shares, as the facade
// does: the universe, the sampled site list, the filter list, the ranks.
type frame struct {
	u          *webgen.Universe
	sample     []tranco.Entry
	boundaries []int
	filter     *filterlist.List
	ranks      map[string]int
	profiles   []browser.Profile
	names      []string
}

func (rp *replayer) frame(op, parent int, cfg webmeasure.Config) (*frame, error) {
	f := &frame{}
	_ = rp.tr.call(op, parent, "webgen.New", func() error {
		wc := webgen.DefaultConfig(cfg.Seed)
		wc.PagesPerSite = cfg.PagesPerSite
		f.u = webgen.New(wc)
		return nil
	})
	trancoSize := cfg.TrancoSize
	if trancoSize <= 0 {
		trancoSize = cfg.Sites * 10
	}
	_ = rp.tr.call(op, parent, "tranco.Sample", func() error {
		list := tranco.Generate(trancoSize, cfg.Seed)
		f.boundaries = tranco.ScaledBoundaries(trancoSize)
		perBucket := cfg.Sites / len(f.boundaries)
		if perBucket < 1 {
			perBucket = 1
		}
		f.sample = list.Sample(f.boundaries, perBucket, cfg.Seed)
		return nil
	})
	err := rp.tr.call(op, parent, "filterlist.Parse", func() error {
		var skipped int
		f.filter, skipped = filterlist.Parse(f.u.FilterListText())
		if skipped != 0 {
			return fmt.Errorf("generated filter list has %d bad rules", skipped)
		}
		f.ranks = make(map[string]int, len(f.sample))
		for _, e := range f.sample {
			f.ranks[e.Site] = e.Rank
		}
		return nil
	})
	f.profiles = browser.DefaultProfiles()
	for _, p := range f.profiles {
		f.names = append(f.names, p.Name)
	}
	if len(cfg.Profiles) != 0 && fmt.Sprint(cfg.Profiles) != fmt.Sprint(f.names) {
		return nil, fmt.Errorf("replay supports only the five default profiles, got %v", cfg.Profiles)
	}
	return f, err
}

// replayRun rebuilds what webmeasure.Run computed for cfg: the frame, the
// crawl (then each site generation and page-load attempt it made), and
// the analysis (then each tree build and comparison it made).
func (rp *replayer) replayRun(op, parent int, cfg webmeasure.Config) (*webmeasure.Results, crawler.Stats, error) {
	var stats crawler.Stats
	f, err := rp.frame(op, parent, cfg)
	if err != nil {
		return nil, stats, err
	}
	fp, err := faults.ByName(cfg.FaultProfile)
	if err != nil {
		return nil, stats, err
	}
	var ds *dataset.Dataset
	crawlID := rp.tr.begin(op, parent, "crawler.Run")
	ds, stats, err = crawler.Run(rp.ctx, crawler.Config{
		Universe: f.u, Sites: f.sample, MaxPages: cfg.PagesPerSite, Instances: cfg.Instances,
		Profiles: f.profiles, Seed: cfg.Seed, Epoch: cfg.Epoch, Faults: fp,
		SiteWorkers: 1, Metrics: rp.reg,
	})
	rp.tr.end(crawlID)
	if err != nil {
		return nil, stats, err
	}
	if err := rp.replayVisits(op, crawlID, f, cfg, fp, ds); err != nil {
		return nil, stats, err
	}
	rp.counts["crawler.visits"] += float64(stats.VisitsTotal)
	rp.counts["crawler.attempts"] += float64(stats.AttemptsTotal)
	rp.counts["crawler.failed"] += float64(stats.VisitsFailed)

	acfg := cfg
	acfg.Metrics = rp.reg
	acfg.Tracer = nil
	var res *webmeasure.Results
	anID := rp.tr.begin(op, parent, "webmeasure.AnalyzeContext")
	res, err = webmeasure.AnalyzeContext(rp.ctx, ds, f.u, f.sample, f.boundaries, acfg)
	rp.tr.end(anID)
	if err != nil {
		return nil, stats, err
	}
	builder := &tree.Builder{Filter: f.filter}
	rp.replayTrees(op, anID, ds.Pages(), f.names, builder, nil)
	rp.countInput(ds.Visits())
	return res, stats, nil
}

// replayVisits regenerates every crawled site and re-renders every
// page-load attempt the crawl recorded, checking each visit's last attempt
// against the recorded one.
func (rp *replayer) replayVisits(op, parent int, f *frame, cfg webmeasure.Config, fp faults.Profile, ds *dataset.Dataset) error {
	inj, err := faults.New(cfg.Seed, fp)
	if err != nil {
		return err
	}
	browsers := make(map[string]*browser.Browser, len(f.profiles))
	for _, p := range f.profiles {
		b := &browser.Browser{Profile: p}
		if inj.Enabled() {
			b.Transport = inj
		}
		browsers[p.Name] = b
	}
	bySite := make(map[string][]*measurement.Visit)
	for _, v := range ds.Visits() {
		bySite[v.Site] = append(bySite[v.Site], v)
	}
	for _, e := range f.sample {
		var site *webgen.Site
		_ = rp.tr.call(op, parent, "webgen.Universe.GenerateSiteAt", func() error {
			site = f.u.GenerateSiteAt(e, cfg.Epoch)
			return nil
		})
		rp.counts["webgen.sites"]++
		pages := make(map[string]*webgen.Page)
		for _, p := range site.AllPages() {
			pages[p.URL] = p
		}
		for _, v := range bySite[site.Domain] {
			page, b := pages[v.PageURL], browsers[v.Profile]
			if page == nil || b == nil {
				return fmt.Errorf("%w: replay cannot find page %s for %s", errCheck, v.PageURL, v.Profile)
			}
			nonce := webgen.NonceFor(uint64(cfg.Seed), v.Profile, v.PageURL)
			for a := 0; a < v.Attempts; a++ {
				var got *measurement.Visit
				_ = rp.tr.call(op, parent, "browser.Browser.VisitAttempt", func() error {
					got = b.VisitAttempt(page, nonce, a, browser.NewJar())
					return nil
				})
				if a == v.Attempts-1 && (got.Success != v.Success || len(got.Requests) != len(v.Requests)) {
					return fmt.Errorf("%w: replayed visit of %s by %s differs from the crawl's", errCheck, v.PageURL, v.Profile)
				}
			}
			rp.counts["browser.requests"] += float64(len(v.Requests))
		}
	}
	return nil
}

// replayTrees repeats the analysis's per-page tree builds and comparisons:
// a tree for every clean visit, and a comparison for every page whose
// profiles all built one.
func (rp *replayer) replayTrees(op, parent int, pages []*dataset.PageVisits, profiles []string, b *tree.Builder, keys *urlutil.KeyCache) {
	name := "tree.Builder.Build"
	if keys != nil {
		name = "tree.Builder.BuildKeyed"
	}
	for _, pv := range pages {
		host := urlutil.Host(pv.Key.PageURL)
		var trees []*tree.Tree
		for _, prof := range profiles {
			v := pv.ByProfile[prof]
			if v == nil || !v.Success || !v.Clean() {
				continue
			}
			var t *tree.Tree
			if rp.tr.call(op, parent, name, func() (err error) {
				t, err = b.BuildKeyed(v, keys)
				return err
			}) != nil {
				continue
			}
			trees = append(trees, t)
			rp.counts["tree.nodes"] += float64(t.NodeCount())
			for _, n := range t.Nodes() {
				if !n.IsRoot() {
					rp.opKeys[n.RawURL+"\x00"+host+"\x00"+n.Type.String()] = struct{}{}
				}
			}
		}
		rp.counts["tree.trees"] += float64(len(trees))
		if len(trees) < len(profiles) {
			continue
		}
		var cmp *treediff.Comparison
		_ = rp.tr.call(op, parent, "treediff.Compare", func() error {
			cmp = treediff.Compare(trees)
			return nil
		})
		rp.counts["treediff.union_nodes"] += float64(len(cmp.Nodes))
	}
}

// endOp closes one replayed op's per-op tallies.
func (rp *replayer) endOp() {
	if len(rp.opKeys) > rp.filterKeysMax {
		rp.filterKeysMax = len(rp.opKeys)
	}
	clear(rp.opKeys)
}

func (rp *replayer) countInput(visits []*measurement.Visit) {
	rp.counts["input.visits"] += float64(len(visits))
	for _, v := range visits {
		rp.counts["input.requests"] += float64(len(v.Requests))
	}
}

// render repeats the report, JSON and CSV rendering into out, then times
// one standalone pass of the derived analyses and of attribution, which
// the renderers compute inside; the render's self time excludes them.
func (rp *replayer) render(op, parent int, a *core.Analysis, boundaries []int, out *renderBufs) error {
	exp := &report.Experiment{Analysis: a, RankBoundaries: boundaries}
	opts := core.ExportOptions{RankBoundaries: boundaries}
	id := rp.tr.begin(op, parent, "report.Render")
	out.report.Reset()
	out.json.Reset()
	out.csv.Reset()
	exp.WriteAll(&out.report)
	err := a.Export(opts).WriteJSON(&out.json)
	if err == nil {
		err = exp.WriteCSV(&out.csv)
	}
	rp.tr.end(id)
	if err != nil {
		return err
	}
	rp.counts["report.bytes"] += float64(out.report.Len() + out.json.Len() + out.csv.Len())
	_ = rp.tr.call(op, id, "core.Analysis.Export", func() error { a.Export(opts); return nil })
	_ = rp.tr.call(op, id, "core.Analysis.Attribution", func() error { a.Attribution(); return nil })
	return nil
}

// realLayer marks the timings taken from the timed phase itself (every
// op), not from replays (the replayed ops).
var realLayer = map[string]bool{"service.queue_wait_ms": true, "service.run_ms": true, "service.job_self_ms": true}

// layerMetrics assembles the per-layer metrics: span self times per op,
// exact counts per replayed op, and the workload's extra figures. Spans
// of op 0 (the monitor's warm-up epoch) are left out.
func layerMetrics(tr *tracer, rp *replayer, replayed, timed int, extra map[string]float64) map[string]metric {
	self := tr.selfMS(func(s span) bool { return s.Op > 0 })
	v := make(map[string]float64, len(perLayer))
	for name, spans := range layerSpans {
		var sum float64
		for _, s := range spans {
			sum += self[s]
		}
		if realLayer[name] {
			v[name] = sum / float64(timed)
		} else {
			v[name] = sum / float64(replayed)
		}
	}
	perOp := func(k string) float64 { return rp.counts[k] / float64(replayed) }
	for _, k := range []string{"webgen.sites", "browser.requests", "crawler.visits", "tree.trees",
		"tree.nodes", "treediff.union_nodes", "input.visits", "input.requests"} {
		v[k] = perOp(k)
	}
	v["faults.injected"] = float64(sumCounters(rp.reg, "faults.injected.total")) / float64(replayed)
	if visits := rp.counts["crawler.visits"]; visits > 0 {
		v["crawler.attempts_per_visit"] = rp.counts["crawler.attempts"] / visits
		v["crawler.failed_share"] = rp.counts["crawler.failed"] / visits
	}
	if pages := sumCounters(rp.reg, "analysis.pages"); pages > 0 {
		v["core.vetted_share"] = float64(sumCounters(rp.reg, "analysis.pages.vetted")) / float64(pages)
	}
	if sec := v["colstore.decode_ms"] * float64(replayed) / 1000; sec > 0 {
		v["colstore.decode_mb_per_s"] = rp.counts["colstore.bytes"] / mb / sec
	}
	v["report.mb"] = perOp("report.bytes") / mb
	v["input.filter_keys_max"] = float64(rp.filterKeysMax)
	for k, x := range extra {
		v[k] = x
	}
	m := make(map[string]metric, len(perLayer))
	for _, p := range perLayer {
		m[p.name] = metric{v[p.name], p.unit}
	}
	return m
}

// sumCounters adds up a counter and all its labeled series.
func sumCounters(reg *metrics.Registry, base string) int64 {
	var n int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == base || strings.HasPrefix(c.Name, base+"|") {
			n += c.Value
		}
	}
	return n
}

// runtimeMetrics are the per-op Go runtime figures of a timed phase.
func runtimeMetrics(phase timedPhase, ops int) map[string]float64 {
	return map[string]float64{
		"runtime.gc_cpu_ms_per_op": phase.gcCPU * 1000 / float64(ops),
		"runtime.heap_live_mb":     liveHeapMB(),
		"trace.op_p50_ms":          percentile(append([]float64(nil), phase.latenciesMS...), 0.5),
	}
}

func spanFile(o options) string {
	return filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}

func replayCount(o options, timed int) int {
	if n := replayedOps[o.workload]; n < timed {
		return n
	}
	return timed
}

func errorsIsCheck(err error) bool { return errors.Is(err, errCheck) }
