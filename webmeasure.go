// Package webmeasure reproduces the experiment of "On the Similarity of Web
// Measurements Under Different Experimental Setups" (Demir et al., IMC '23)
// end to end: it crawls a synthetic web with the paper's five browser
// profiles, builds a dependency tree per page visit, cross-compares the
// trees, and regenerates every table and figure of the evaluation.
//
// The package is a facade over the internal substrates (web generator,
// browser simulator, crawler, tree builder, comparison engine, statistics):
//
//	res, err := webmeasure.Run(ctx, webmeasure.Config{Seed: 42, Sites: 200})
//	if err != nil { ... }
//	res.WriteReport(os.Stdout)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package webmeasure

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync"

	"webmeasure/internal/browser"
	"webmeasure/internal/colstore"
	"webmeasure/internal/core"
	"webmeasure/internal/crawler"
	"webmeasure/internal/dataset"
	"webmeasure/internal/drift"
	"webmeasure/internal/faults"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/metrics"
	"webmeasure/internal/report"
	"webmeasure/internal/trace"
	"webmeasure/internal/tranco"
	"webmeasure/internal/urlutil"
	"webmeasure/internal/webgen"
)

// Config parameterizes an experiment. The zero value is completed with
// laptop-scale defaults by Run.
type Config struct {
	// Seed makes the whole experiment reproducible (default 1).
	Seed int64
	// Sites is the number of sites sampled from the ranked list across
	// the paper's five popularity buckets (default 100; the paper uses
	// 25,000).
	Sites int
	// TrancoSize is the size of the full ranked list sampled from
	// (default 10× Sites, mirroring the paper's 25k-of-500k sampling).
	TrancoSize int
	// PagesPerSite bounds the subpages visited per site in addition to
	// the landing page (default 10; the paper collects 25).
	PagesPerSite int
	// Instances is the number of parallel browser instances per profile
	// client (default 15, the paper's value).
	Instances int
	// Epoch selects the synthetic web's point in time (0 = base
	// snapshot); run the same seed at two epochs for a longitudinal
	// comparison.
	Epoch int
	// Profiles restricts the crawl and analysis to a named subset of the
	// paper's five browser profiles (Table 1). Empty means all five;
	// unknown names are an error.
	Profiles []string
	// Stateful preserves cookies across a site's pages within each client
	// (Appendix C's alternative design choice; default stateless).
	Stateful bool
	// FaultProfile names the deterministic fault-injection profile applied
	// to every page fetch (one of faults.Names(): "off", "light", "heavy";
	// empty = off). Faults are seeded from Seed, so the same configuration
	// reproduces the same failures byte for byte.
	FaultProfile string
	// Retry bounds the crawler's per-visit retry loop for transient
	// (injected) failures; the zero value uses the crawler's defaults.
	Retry crawler.RetryPolicy
	// Progress, if non-nil, receives crawl progress (sites done, total).
	Progress func(done, total int)
	// ResumeJSONL, if non-nil, streams a previously written dataset
	// (WriteDataset or WriteDatasetCol output — the format is sniffed
	// from the magic bytes); successful visits found there are reused so
	// an interrupted crawl continues where it stopped.
	ResumeJSONL io.Reader
	// Workers bounds the analysis worker pool that fans per-page work
	// (vetting, tree building, cross-comparison) out over CPUs. The
	// merge is deterministic, so every report/JSON/CSV export is
	// byte-identical for any worker count. 0 = GOMAXPROCS.
	Workers int
	// SiteWorkers bounds the crawl's site-level worker pool: that many
	// sites are crawled concurrently, all recording into Metrics and
	// Tracer, and a sequencer emits them in site-list order. Every
	// artifact — dataset bytes in both formats, report, metrics counters,
	// trace exports — is identical for any value. 0 = GOMAXPROCS.
	SiteWorkers int
	// Shards splits the experiment's page-key space into this many slices
	// for distributed shard-and-merge analysis (0 or 1 = the whole
	// experiment in one process). With Shards > 1 the run covers only the
	// slice ShardIndex selects; one Partial per shard is then assembled
	// with AssembleFromPartials into results whose report, JSON, CSV, and
	// Summary are byte-identical to the single-process run's.
	Shards int
	// ShardIndex selects this run's slice (0-based, < Shards) when Shards
	// is set.
	ShardIndex int
	// ShardSeed seeds the shard plan's page-key hash; every worker and the
	// coordinator must agree on it. 0 = Seed.
	ShardSeed int64
	// Metrics, if non-nil, collects live crawl and analysis counters and
	// timing histograms; snapshot it from another goroutine for progress
	// lines (see metrics.StartProgress).
	Metrics *metrics.Registry
	// Tracer, if non-nil, records one deterministic span trace per page
	// across the whole pipeline — crawl fetch/retry/backoff through tree
	// build, vetting, and comparison (see internal/trace).
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sites <= 0 {
		c.Sites = 100
	}
	if c.TrancoSize <= 0 {
		c.TrancoSize = c.Sites * 10
	}
	if c.TrancoSize < c.Sites {
		c.TrancoSize = c.Sites
	}
	if c.PagesPerSite <= 0 {
		c.PagesPerSite = 10
	}
	if c.Shards > 1 && c.ShardSeed == 0 {
		c.ShardSeed = c.Seed
	}
	return c
}

// shardPlan returns the config's shard plan (Count 1 when unsharded).
func (c Config) shardPlan() core.ShardPlan {
	count := c.Shards
	if count < 1 {
		count = 1
	}
	return core.ShardPlan{Count: count, Seed: c.ShardSeed}
}

// Results is a completed experiment: the collected dataset plus the full
// analysis. Every rendered artifact (report, JSON, CSV, Summary) formats
// the one derivation its Experiment computes on first use.
type Results struct {
	cfg      Config
	universe *webgen.Universe
	// dataset holds the input's visits. A columnar load keeps the file's
	// bytes in col instead, which visits decodes into dataset on first
	// use; the analysis never needs them.
	dataset *dataset.Dataset
	col     []byte
	colOnce sync.Once
	colErr  error
	exp     *report.Experiment
	stats   crawler.Stats
}

// visits returns the input's dataset, decoding a columnar load's bytes
// on the first call.
func (r *Results) visits() (*dataset.Dataset, error) {
	r.colOnce.Do(func() {
		if r.col != nil {
			r.dataset, r.colErr = dataset.ReadCol(bytes.NewReader(r.col))
			r.col = nil
		}
	})
	return r.dataset, r.colErr
}

// experimentFrame regenerates the deterministic scaffolding every entry
// point shares: the universe, the rank-bucket boundaries, and the sampled
// site list. cfg must already carry defaults.
func experimentFrame(cfg Config) (*webgen.Universe, []tranco.Entry, []int) {
	u := webgen.New(webgenConfig(cfg))
	list := tranco.Generate(cfg.TrancoSize, cfg.Seed)
	boundaries := tranco.ScaledBoundaries(cfg.TrancoSize)
	perBucket := cfg.Sites / len(boundaries)
	if perBucket < 1 {
		perBucket = 1
	}
	sample := list.Sample(boundaries, perBucket, cfg.Seed)
	return u, sample, boundaries
}

// validateShard checks the Shards/ShardIndex pair.
func (c Config) validateShard() error {
	if c.Shards > 1 && (c.ShardIndex < 0 || c.ShardIndex >= c.Shards) {
		return fmt.Errorf("webmeasure: shard index %d out of range for %d shards", c.ShardIndex, c.Shards)
	}
	return nil
}

// Run executes the experiment: generate the universe, sample the ranked
// site list, crawl with the five profiles of Table 1, vet, and analyze.
// The crawl feeds the analysis one site at a time, as its sequencer emits
// each site, so one site's analysis overlaps the next sites' crawl.
// With Config.Shards > 1 the run restricts itself to shard ShardIndex's
// slice of the page-key space — every visit is a pure function of (seed,
// profile, page), so the shard's records are byte-identical to the full
// crawl's records for the same pages.
func Run(ctx context.Context, cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validateShard(); err != nil {
		return nil, err
	}
	u, sample, boundaries := experimentFrame(cfg)
	ccfg, err := cfg.crawlerConfig(u, sample)
	if err != nil {
		return nil, err
	}
	var stats crawler.Stats
	res, err := analyzeSites(ctx, cfg, u, sample, boundaries, dataset.New(), func(s *core.Stream) error {
		ccfg.Sink = s
		var err error
		if _, stats, err = crawler.Run(ctx, ccfg); err != nil {
			return fmt.Errorf("webmeasure: crawl: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.stats = stats
	return res, nil
}

// crawlerConfig resolves the crawl inputs Run and CrawlStream share —
// resume dataset, profile selection, fault profile, shard page filter —
// into the crawler's configuration.
func (c Config) crawlerConfig(u *webgen.Universe, sample []tranco.Entry) (crawler.Config, error) {
	var resume *dataset.Dataset
	if c.ResumeJSONL != nil {
		var err error
		resume, err = dataset.ReadAuto(c.ResumeJSONL)
		if err != nil {
			return crawler.Config{}, fmt.Errorf("webmeasure: resume dataset: %w", err)
		}
	}
	profs, err := selectProfiles(c.Profiles)
	if err != nil {
		return crawler.Config{}, err
	}
	faultProfile, err := faults.ByName(c.FaultProfile)
	if err != nil {
		return crawler.Config{}, fmt.Errorf("webmeasure: %w", err)
	}
	var pageFilter func(site, pageURL string) bool
	if c.Shards > 1 {
		if c.Stateful && resume != nil {
			// A resumed stateful crawl reuses visits without replaying them,
			// so the shared cookie jar would diverge from the full crawl's.
			return crawler.Config{}, fmt.Errorf("webmeasure: sharded crawls cannot combine Stateful with ResumeJSONL")
		}
		pageFilter = c.shardPlan().Keep(c.ShardIndex)
	}
	return crawler.Config{
		Universe:    u,
		Sites:       sample,
		MaxPages:    c.PagesPerSite,
		Instances:   c.Instances,
		Profiles:    profs,
		Seed:        c.Seed,
		Epoch:       c.Epoch,
		Stateful:    c.Stateful,
		Faults:      faultProfile,
		Retry:       c.Retry,
		Progress:    c.Progress,
		Resume:      resume,
		Metrics:     c.Metrics,
		Tracer:      c.Tracer,
		PageFilter:  pageFilter,
		SiteWorkers: c.SiteWorkers,
	}, nil
}

// CrawlStream runs only the measurement, streaming each finished site
// into sink in site-list order instead of accumulating the whole dataset
// in memory: peak RSS is bounded by the crawl's in-flight reorder window,
// not the dataset size. The sink receives exactly the visit sequence
// Run's dataset would hold (a dataset.SiteWriter therefore produces the
// same bytes WriteDataset/WriteDatasetCol would); Close stays with the
// caller. Analysis runs separately — feed the written file to
// LoadAndAnalyzeContext.
func CrawlStream(ctx context.Context, cfg Config, sink crawler.SiteSink) (crawler.Stats, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validateShard(); err != nil {
		return crawler.Stats{}, err
	}
	u, sample, _ := experimentFrame(cfg)
	ccfg, err := cfg.crawlerConfig(u, sample)
	if err != nil {
		return crawler.Stats{}, err
	}
	ccfg.Sink = sink
	_, stats, err := crawler.Run(ctx, ccfg)
	if err != nil {
		return stats, fmt.Errorf("webmeasure: crawl: %w", err)
	}
	return stats, nil
}

// analysisEnv derives the analysis inputs every entry point shares from
// the experiment frame: the site→rank map and the ordered profile names.
func analysisEnv(sample []tranco.Entry, cfg Config) (map[string]int, []string, error) {
	ranks := make(map[string]int, len(sample))
	for _, e := range sample {
		ranks[e.Site] = e.Rank
	}
	profs, err := selectProfiles(cfg.Profiles)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(profs))
	for i, p := range profs {
		names[i] = p.Name
	}
	return ranks, names, nil
}

// analyzeSites is the analysis behind every facade entry point: it
// derives the analysis environment and the universe's filter list once,
// opens one core.Stream over ds, lets feed push the input's sites into it
// one at a time, in whatever order the input holds them, and seals the
// result.
func analyzeSites(ctx context.Context, cfg Config, u *webgen.Universe, sample []tranco.Entry, boundaries []int,
	ds *dataset.Dataset, feed func(*core.Stream) error) (*Results, error) {
	ranks, names, err := analysisEnv(sample, cfg)
	if err != nil {
		return nil, err
	}
	filter, skipped := filterlist.Parse(u.FilterListText())
	if skipped != 0 {
		return nil, fmt.Errorf("webmeasure: generated filter list has %d bad rules", skipped)
	}
	stream, err := core.NewStream(ds, filter, core.Options{
		Profiles: names,
		SiteRank: ranks,
		Workers:  cfg.Workers,
		Metrics:  cfg.Metrics,
		Context:  ctx,
		Tracer:   cfg.Tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("webmeasure: analyze: %w", err)
	}
	if err := feed(stream); err != nil {
		return nil, err
	}
	analysis, err := stream.Finish()
	if err != nil {
		return nil, fmt.Errorf("webmeasure: analyze: %w", err)
	}
	return &Results{
		cfg:      cfg,
		universe: u,
		dataset:  ds,
		exp:      &report.Experiment{Analysis: analysis, RankBoundaries: boundaries},
	}, nil
}

// AnalyzeContext runs the analysis over an existing dataset, every page
// in one batch. sample and boundaries supply the rank information for the
// popularity analysis and may be nil. The context aborts the per-page
// analysis pool between pages (a canceled job server request stops
// burning CPU mid-analysis).
func AnalyzeContext(ctx context.Context, ds *dataset.Dataset, u *webgen.Universe, sample []tranco.Entry, boundaries []int, cfg Config) (*Results, error) {
	return analyzeSites(ctx, cfg, u, sample, boundaries, ds, func(s *core.Stream) error {
		if err := s.AddDataset(ds); err != nil {
			return fmt.Errorf("webmeasure: analyze: %w", err)
		}
		return nil
	})
}

func webgenConfig(cfg Config) webgen.Config {
	wc := webgen.DefaultConfig(cfg.Seed)
	wc.PagesPerSite = cfg.PagesPerSite
	return wc
}

// selectProfiles resolves Config.Profiles against the paper's five
// default profiles, preserving the Table 1 order; empty selects all.
func selectProfiles(names []string) ([]browser.Profile, error) {
	all := browser.DefaultProfiles()
	if len(names) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		found := false
		for _, p := range all {
			if p.Name == n {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("webmeasure: unknown profile %q", n)
		}
		want[n] = true
	}
	out := make([]browser.Profile, 0, len(want))
	for _, p := range all {
		if want[p.Name] {
			out = append(out, p)
		}
	}
	return out, nil
}

// WriteReport renders every table and figure of the paper to w.
func (r *Results) WriteReport(w io.Writer) { r.exp.WriteAll(w) }

// WriteDataset streams the raw visit records as JSON Lines (the released
// raw-data artifact of Appendix A).
func (r *Results) WriteDataset(w io.Writer) error {
	ds, err := r.visits()
	if err != nil {
		return fmt.Errorf("webmeasure: %w", err)
	}
	return ds.WriteJSONL(w)
}

// WriteDatasetCol writes the raw visit records in the compact columnar
// format (internal/colstore): one block per site with interned strings
// and delta-coded columns, plus a footer index for site-granular seeks.
// ReadCol of the output reproduces WriteDataset's JSONL byte for byte.
func (r *Results) WriteDatasetCol(w io.Writer) error {
	ds, err := r.visits()
	if err != nil {
		return fmt.Errorf("webmeasure: %w", err)
	}
	return ds.WriteCol(w)
}

// WriteJSON exports every analysis result as one machine-readable JSON
// bundle (deterministic for a fixed seed — diffable in CI).
func (r *Results) WriteJSON(w io.Writer) error { return r.exp.Export().WriteJSON(w) }

// WriteCSVFiles exports every table and figure as CSV files into dir for
// external plotting.
func (r *Results) WriteCSVFiles(dir string) error { return r.exp.WriteCSVFiles(dir) }

// WriteCSV streams every table and figure as one concatenated CSV
// document ("# <name>" section headers), the single-response form served
// over HTTP.
func (r *Results) WriteCSV(w io.Writer) error { return r.exp.WriteCSV(w) }

// Summary is the headline outcome of an experiment.
type Summary struct {
	Sites       int
	Pages       int
	Visits      int
	VettedPages int
	VettedShare float64
	// ExcludedPages counts pages the vetting stage dropped; the Degraded
	// share is the part attributable to fault-truncated observations.
	ExcludedPages    int
	ExcludedDegraded int

	MeanNodesPerTree   float64
	MeanTreeDepth      float64
	MeanNodePresence   float64 // of 5 profiles
	ShareInAllProfiles float64
	ShareInOneProfile  float64

	FirstPartyDepthSimilarity float64
	ThirdPartyDepthSimilarity float64
	TrackingShare             float64
	UniqueNodeShare           float64
}

// Summary computes the headline numbers.
func (r *Results) Summary() Summary {
	x := r.exp.Export()
	cs, ov := x.CrawlSummary, x.TreeOverview
	var fpSim, tpSim float64
	for _, row := range x.DepthSim {
		switch row.Label {
		case "first-party nodes":
			fpSim = row.Sim
		case "third-party nodes":
			tpSim = row.Sim
		}
	}
	return Summary{
		Sites:            cs.Sites,
		Pages:            cs.Pages,
		Visits:           cs.Visits,
		VettedPages:      cs.VettedPages,
		VettedShare:      cs.VettedShare,
		ExcludedPages:    cs.Vetting.Excluded(),
		ExcludedDegraded: cs.Vetting.ExcludedDegraded,

		MeanNodesPerTree:   ov.Nodes.Mean,
		MeanTreeDepth:      ov.Depth.Mean,
		MeanNodePresence:   ov.MeanPresence,
		ShareInAllProfiles: ov.ShareInAll,
		ShareInOneProfile:  ov.ShareInOne,

		FirstPartyDepthSimilarity: fpSim,
		ThirdPartyDepthSimilarity: tpSim,
		TrackingShare:             x.TrackingStudy.TrackingShare,
		UniqueNodeShare:           x.UniqueNodes.UniqueShare,
	}
}

// Analysis exposes the full analysis for advanced consumers (examples, the
// benchmark harness).
func (r *Results) Analysis() *core.Analysis { return r.exp.Analysis }

// Universe exposes the generated web universe.
func (r *Results) Universe() *webgen.Universe { return r.universe }

// DriftBaseline snapshots the analysis into a longitudinal drift
// baseline (see internal/drift): the per-epoch artifact the monitor
// persists and later diffs against other epochs of the same experiment.
func (r *Results) DriftBaseline() *drift.Baseline {
	cfg := r.cfg.withDefaults()
	return drift.Snapshot(r.exp.Analysis, drift.Meta{
		Epoch:        cfg.Epoch,
		Seed:         cfg.Seed,
		Sites:        cfg.Sites,
		TrancoSize:   cfg.TrancoSize,
		PagesPerSite: cfg.PagesPerSite,
		Profiles:     r.exp.Analysis.Profiles(),
		FaultProfile: cfg.FaultProfile,
	})
}

// Dataset exposes the collected visits in memory, for callers that
// query or re-encode them (WriteDataset and WriteDatasetCol write the
// same visits). Results of a columnar load hold the file's bytes, not its
// visits, and decode them on the first call of Dataset, WriteDataset or
// WriteDatasetCol; the load has decoded and verified those bytes once
// already, so a failure here is a broken invariant and panics.
func (r *Results) Dataset() *dataset.Dataset {
	ds, err := r.visits()
	if err != nil {
		panic(fmt.Sprintf("webmeasure: decode a loaded columnar dataset again: %v", err))
	}
	return ds
}

// RankBoundaries returns the rank-bucket boundaries used for sampling.
func (r *Results) RankBoundaries() []int { return r.exp.RankBoundaries }

// CrawlStats returns the crawler's bookkeeping (zero when the dataset was
// loaded rather than crawled).
func (r *Results) CrawlStats() crawler.Stats { return r.stats }

// LoadAndAnalyzeContext reads a dataset written by WriteDataset or
// WriteDatasetCol — the format is auto-detected from the magic bytes —
// and analyzes it; the context cancels as in AnalyzeContext. cfg must
// carry the same Seed/Sites/TrancoSize/PagesPerSite the crawl used, so
// the universe (and with it the filter list and rank sample) can be
// regenerated deterministically. A columnar dataset, seekable or not, is
// read into memory whole and analyzed in one sequential pass in file
// order: every site block is decoded into one scratch block, and its key
// cache into one scratch cache, each reused for the next block once the
// analysis of the last has returned. The analysis keeps no visit; the
// Results keep the file's bytes, which Dataset, WriteDataset and
// WriteDatasetCol decode on first use. A dataset that holds no visit is
// refused: it records no experiment.
func LoadAndAnalyzeContext(ctx context.Context, datasetIn io.Reader, cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	size := sizeHint(datasetIn)
	format, rd, err := dataset.DetectFormat(datasetIn)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
	}
	u, sample, boundaries := experimentFrame(cfg)
	if format == dataset.FormatJSONL {
		ds, err := dataset.ReadJSONL(rd)
		if err != nil {
			return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
		}
		if ds.Len() == 0 {
			return nil, errNoVisits
		}
		return AnalyzeContext(ctx, ds, u, sample, boundaries, cfg)
	}
	var raw bytes.Buffer
	raw.Grow(size + bytes.MinRead)
	if _, err := raw.ReadFrom(rd); err != nil {
		return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
	}
	res, err := analyzeSites(ctx, cfg, u, sample, boundaries, nil, func(s *core.Stream) error {
		visits := 0
		if _, err := colstore.ScanScratch(bytes.NewReader(raw.Bytes()), func(sb *colstore.SiteBlock, keys *urlutil.KeyCache) error {
			visits += len(sb.Visits)
			return s.AddSiteVisits(sb.Site, sb.Visits, keys)
		}); err != nil {
			return fmt.Errorf("webmeasure: load dataset: %w", err)
		}
		if visits == 0 {
			return errNoVisits
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.col = raw.Bytes()
	return res, nil
}

// sizeHint is how many bytes r holds, when r says: an in-memory reader's
// unread length or a regular file's size; 0 otherwise.
func sizeHint(r io.Reader) int {
	switch r := r.(type) {
	case interface{ Len() int }:
		return r.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size())
		}
	}
	return 0
}

var errNoVisits = errors.New("webmeasure: load dataset: no visits")

// Partial exports this run's analysis as one shard's contribution to a
// distributed shard-and-merge analysis. The run must have been sharded
// (Config.Shards > 1); the partial carries the shard's vetted trees,
// vetting tally, and raw visits (metrics dumps and trace exports are
// attached by the caller, which owns those registries).
func (r *Results) Partial() (*core.Partial, error) {
	if r.cfg.Shards <= 1 {
		return nil, fmt.Errorf("webmeasure: Partial requires a sharded run (Shards > 1)")
	}
	return r.exp.Analysis.Partial(r.cfg.shardPlan(), r.cfg.ShardIndex)
}

// AssembleFromPartials merges one Partial per shard into full Results
// whose report, JSON, CSV, and Summary are byte-identical to a
// single-process run of the same config; the dataset exports are not, as
// the union dataset is rebuilt from the partials' visits in shard order.
// cfg must carry the same experiment parameters the shard workers used
// (Seed, Sites, TrancoSize, PagesPerSite, Profiles, Shards, ShardSeed).
// The context cancels the merge between pages.
func AssembleFromPartials(ctx context.Context, cfg Config, parts []*core.Partial) (*Results, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 1 {
		return nil, fmt.Errorf("webmeasure: AssembleFromPartials requires Shards > 1")
	}
	u, sample, boundaries := experimentFrame(cfg)
	ranks, names, err := analysisEnv(sample, cfg)
	if err != nil {
		return nil, err
	}
	// The union dataset: every shard's visits, in shard order. Exports
	// that depend on visit *grouping* use the page-key-sorted view, so
	// the concatenation order is invisible to every artifact.
	byShard := make([]*core.Partial, cfg.Shards)
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.Shard >= 0 && p.Shard < cfg.Shards && byShard[p.Shard] == nil {
			byShard[p.Shard] = p
		}
	}
	ds := dataset.New()
	for _, p := range byShard {
		if p == nil {
			continue
		}
		for _, v := range p.Visits {
			ds.Add(v)
		}
	}
	analysis, err := core.NewFromPartials(ds, core.Options{
		Profiles: names,
		SiteRank: ranks,
		Workers:  cfg.Workers,
		Metrics:  cfg.Metrics,
		Context:  ctx,
	}, cfg.shardPlan(), parts)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: assemble: %w", err)
	}
	return &Results{
		cfg:      cfg,
		universe: u,
		dataset:  ds,
		exp:      &report.Experiment{Analysis: analysis, RankBoundaries: boundaries},
	}, nil
}
