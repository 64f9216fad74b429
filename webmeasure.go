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
	"context"
	"fmt"
	"io"
	"sort"

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
	// sites are crawled concurrently, each on isolated scratch state, and
	// a sequencer re-emits them in site-list order. Every artifact —
	// dataset bytes in both formats, report, metrics counters, trace
	// exports — is identical for any value. 0 = GOMAXPROCS.
	SiteWorkers int
	// Shards splits the experiment's page-key space into this many slices
	// for distributed shard-and-merge analysis (0 or 1 = the whole
	// experiment in one process). With Shards > 1 the run covers only the
	// slice ShardIndex selects; one Partial per shard is then assembled
	// with AssembleFromPartials into results byte-identical to the
	// single-process run.
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
	// build, vetting, and comparison (see internal/trace). A tracer
	// carried by the run's context (trace.NewContext) is picked up when
	// this field is nil.
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
// analysis.
type Results struct {
	cfg        Config
	universe   *webgen.Universe
	dataset    *dataset.Dataset
	analysis   *core.Analysis
	boundaries []int
	stats      crawler.Stats
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
	ds, crawlStats, err := crawler.Run(ctx, ccfg)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: crawl: %w", err)
	}
	res, err := AnalyzeContext(ctx, ds, u, sample, boundaries, cfg)
	if err != nil {
		return nil, err
	}
	res.stats = crawlStats
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
// LoadAndAnalyze.
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
	ccfg.DiscardDataset = true
	_, stats, err := crawler.Run(ctx, ccfg)
	if err != nil {
		return stats, fmt.Errorf("webmeasure: crawl: %w", err)
	}
	return stats, nil
}

// Analyze runs the analysis over an existing dataset (e.g. one loaded with
// LoadDataset). sample and boundaries supply the rank information for the
// popularity analysis and may be nil.
func Analyze(ds *dataset.Dataset, u *webgen.Universe, sample []tranco.Entry, boundaries []int, cfg Config) (*Results, error) {
	return AnalyzeContext(context.Background(), ds, u, sample, boundaries, cfg)
}

// analysisEnv derives the analysis inputs every entry point shares from
// the regenerated universe: the filter list, the site→rank map, and the
// ordered profile names.
func analysisEnv(u *webgen.Universe, sample []tranco.Entry, cfg Config) (*filterlist.List, map[string]int, []string, error) {
	filter, skipped := filterlist.Parse(u.FilterListText())
	if skipped != 0 {
		return nil, nil, nil, fmt.Errorf("webmeasure: generated filter list has %d bad rules", skipped)
	}
	ranks := make(map[string]int, len(sample))
	for _, e := range sample {
		ranks[e.Site] = e.Rank
	}
	profs, err := selectProfiles(cfg.Profiles)
	if err != nil {
		return nil, nil, nil, err
	}
	names := make([]string, len(profs))
	for i, p := range profs {
		names[i] = p.Name
	}
	return filter, ranks, names, nil
}

// analysisOptions assembles the core options shared by the batch and
// streaming analysis paths.
func analysisOptions(ctx context.Context, names []string, ranks map[string]int, cfg Config) core.Options {
	return core.Options{
		Profiles: names,
		SiteRank: ranks,
		Workers:  cfg.Workers,
		Metrics:  cfg.Metrics,
		Context:  ctx,
		Tracer:   cfg.Tracer,
		// One shard's slice can legitimately vet down to nothing; the
		// coordinator judges emptiness after merging all shards.
		AllowEmpty: cfg.Shards > 1,
	}
}

// AnalyzeContext is Analyze with cancellation: the context aborts the
// per-page analysis pool between pages (a canceled job server request
// stops burning CPU mid-analysis).
func AnalyzeContext(ctx context.Context, ds *dataset.Dataset, u *webgen.Universe, sample []tranco.Entry, boundaries []int, cfg Config) (*Results, error) {
	filter, ranks, names, err := analysisEnv(u, sample, cfg)
	if err != nil {
		return nil, err
	}
	analysis, err := core.New(ds, filter, analysisOptions(ctx, names, ranks, cfg))
	if err != nil {
		return nil, fmt.Errorf("webmeasure: analyze: %w", err)
	}
	return &Results{
		cfg:        cfg,
		universe:   u,
		dataset:    ds,
		analysis:   analysis,
		boundaries: boundaries,
	}, nil
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
func (r *Results) WriteReport(w io.Writer) {
	exp := &report.Experiment{
		Analysis:       r.analysis,
		RankBoundaries: r.boundaries,
	}
	exp.WriteAll(w)
}

// WriteDataset streams the raw visit records as JSON Lines (the released
// raw-data artifact of Appendix A).
func (r *Results) WriteDataset(w io.Writer) error {
	return r.dataset.WriteJSONL(w)
}

// WriteDatasetCol writes the raw visit records in the compact columnar
// format (internal/colstore): one block per site with interned strings
// and delta-coded columns, plus a footer index for site-granular seeks.
// ReadCol of the output reproduces WriteDataset's JSONL byte for byte.
func (r *Results) WriteDatasetCol(w io.Writer) error {
	return r.dataset.WriteCol(w)
}

// WriteJSON exports every analysis result as one machine-readable JSON
// bundle (deterministic for a fixed seed — diffable in CI).
func (r *Results) WriteJSON(w io.Writer) error {
	return r.analysis.Export(core.ExportOptions{RankBoundaries: r.boundaries}).WriteJSON(w)
}

// WriteCSVFiles exports every table and figure as CSV files into dir for
// external plotting.
func (r *Results) WriteCSVFiles(dir string) error {
	exp := &report.Experiment{
		Analysis:       r.analysis,
		RankBoundaries: r.boundaries,
	}
	return exp.WriteCSVFiles(dir)
}

// WriteCSV streams every table and figure as one concatenated CSV
// document ("# <name>" section headers), the single-response form served
// over HTTP.
func (r *Results) WriteCSV(w io.Writer) error {
	exp := &report.Experiment{
		Analysis:       r.analysis,
		RankBoundaries: r.boundaries,
	}
	return exp.WriteCSV(w)
}

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
	cs := r.analysis.CrawlSummary()
	ov := r.analysis.TreeOverview()
	tr := r.analysis.TrackingStudy()
	un := r.analysis.UniqueNodes()
	var fpSim, tpSim float64
	for _, row := range r.analysis.DepthSimilarityTable() {
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
		TrackingShare:             tr.TrackingShare,
		UniqueNodeShare:           un.UniqueShare,
	}
}

// Analysis exposes the full analysis for advanced consumers (examples, the
// benchmark harness).
func (r *Results) Analysis() *core.Analysis { return r.analysis }

// Universe exposes the generated web universe.
func (r *Results) Universe() *webgen.Universe { return r.universe }

// DriftBaseline snapshots the analysis into a longitudinal drift
// baseline (see internal/drift): the per-epoch artifact the monitor
// persists and later diffs against other epochs of the same experiment.
func (r *Results) DriftBaseline() *drift.Baseline {
	cfg := r.cfg.withDefaults()
	return drift.Snapshot(r.analysis, drift.Meta{
		Epoch:        cfg.Epoch,
		Seed:         cfg.Seed,
		Sites:        cfg.Sites,
		TrancoSize:   cfg.TrancoSize,
		PagesPerSite: cfg.PagesPerSite,
		Profiles:     r.analysis.Profiles(),
		FaultProfile: cfg.FaultProfile,
	})
}

// Dataset exposes the collected visits, e.g. for streaming JSONL
// downloads (dataset.StreamJSONL) from a serving layer.
func (r *Results) Dataset() *dataset.Dataset { return r.dataset }

// RankBoundaries returns the rank-bucket boundaries used for sampling.
func (r *Results) RankBoundaries() []int { return r.boundaries }

// CrawlStats returns the crawler's bookkeeping (zero when the dataset was
// loaded rather than crawled).
func (r *Results) CrawlStats() crawler.Stats { return r.stats }

// LoadAndAnalyze reads a dataset written by WriteDataset or
// WriteDatasetCol — the format is auto-detected from the magic bytes —
// and analyzes it. cfg must carry the same Seed/Sites/TrancoSize/
// PagesPerSite the crawl used, so the universe (and with it the filter
// list and rank sample) can be regenerated deterministically.
func LoadAndAnalyze(datasetIn io.Reader, cfg Config) (*Results, error) {
	return LoadAndAnalyzeContext(context.Background(), datasetIn, cfg)
}

// LoadAndAnalyzeContext is LoadAndAnalyze with cancellation (see
// AnalyzeContext). A columnar dataset is analyzed site by site as it
// decodes: each block's page groups enter the worker pool while only
// that block occupies transient decode memory, and the retained visits
// share the block's interned strings. A seekable columnar input (an
// *os.File) is read through its footer index, whose blocks are listed in
// ascending site order regardless of the order the crawl streamed them,
// so block decode memory stays bounded even for files written in
// crawl order by CrawlStream.
func LoadAndAnalyzeContext(ctx context.Context, datasetIn io.Reader, cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	if ra, size, ok := readerAtSize(datasetIn); ok {
		head := make([]byte, len(colstore.Magic))
		if n, _ := ra.ReadAt(head, 0); colstore.Sniff(head[:n]) {
			return loadAndAnalyzeColIndexed(ctx, ra, size, cfg)
		}
	}
	format, rd, err := dataset.DetectFormat(datasetIn)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
	}
	if format == dataset.FormatCol {
		return loadAndAnalyzeCol(ctx, rd, cfg)
	}
	ds, err := dataset.ReadJSONL(rd)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
	}
	u, sample, boundaries := experimentFrame(cfg)
	return AnalyzeContext(ctx, ds, u, sample, boundaries, cfg)
}

// colStream is the scaffolding the two columnar load paths share: the
// regenerated experiment frame plus an open streaming analysis.
type colStream struct {
	u          *webgen.Universe
	boundaries []int
	ds         *dataset.Dataset
	stream     *core.Stream
	cfg        Config
}

func newColStream(ctx context.Context, cfg Config) (*colStream, error) {
	u, sample, boundaries := experimentFrame(cfg)
	filter, ranks, names, err := analysisEnv(u, sample, cfg)
	if err != nil {
		return nil, err
	}
	ds := dataset.New()
	stream, err := core.NewStream(ds, filter, analysisOptions(ctx, names, ranks, cfg))
	if err != nil {
		return nil, fmt.Errorf("webmeasure: analyze: %w", err)
	}
	return &colStream{u: u, boundaries: boundaries, ds: ds, stream: stream, cfg: cfg}, nil
}

// addBlock feeds one decoded site block to the analysis. Blocks must
// arrive in ascending site order.
func (cs *colStream) addBlock(sb *colstore.SiteBlock) error {
	for _, v := range sb.Visits {
		cs.ds.Add(v)
	}
	return cs.stream.AddSite(sb.Site, dataset.GroupVisits(sb.Visits), sb.KeyCache())
}

func (cs *colStream) finish() (*Results, error) {
	analysis, err := cs.stream.Finish()
	if err != nil {
		return nil, fmt.Errorf("webmeasure: analyze: %w", err)
	}
	return &Results{
		cfg:        cs.cfg,
		universe:   cs.u,
		dataset:    cs.ds,
		analysis:   analysis,
		boundaries: cs.boundaries,
	}, nil
}

// loadAndAnalyzeColIndexed streams a random-access columnar dataset
// through the incremental analysis in footer-index order: decode one
// site block, analyze its pages (through the block's pre-interned key
// cache), move to the next. The decoded visits are retained — the
// derived analyses read raw requests back after the page pool — but
// they alias each block's string table, and no JSONL-sized row buffers
// ever exist. The footer lists blocks in ascending site order whatever
// order the body holds, so this path accepts crawl-order files at the
// same bounded decode memory as site-sorted ones.
func loadAndAnalyzeColIndexed(ctx context.Context, ra io.ReaderAt, size int64, cfg Config) (*Results, error) {
	colr, err := dataset.OpenCol(ra, size)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
	}
	cs, err := newColStream(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for bi := range colr.Index().Blocks {
		sb, err := colr.Block(bi)
		if err != nil {
			return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
		}
		if err := cs.addBlock(sb); err != nil {
			return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
		}
	}
	return cs.finish()
}

// loadAndAnalyzeCol handles a non-seekable columnar stream. The body's
// block order is not guaranteed (CrawlStream writes blocks in crawl
// order) and the footer cannot be consulted first, so the blocks are
// buffered, sorted by site, and then fed to the streaming analysis —
// correct for any order, at the cost of holding every decoded block at
// once. Seekable inputs take loadAndAnalyzeColIndexed instead, which
// keeps decode memory bounded.
func loadAndAnalyzeCol(ctx context.Context, r io.Reader, cfg Config) (*Results, error) {
	cs, err := newColStream(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var blocks []*colstore.SiteBlock
	if _, err := dataset.ScanColSites(r, func(sb *colstore.SiteBlock) error {
		blocks = append(blocks, sb)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Site < blocks[j].Site })
	for _, sb := range blocks {
		if err := cs.addBlock(sb); err != nil {
			return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
		}
	}
	return cs.finish()
}

// Partial exports this run's analysis as one shard's contribution to a
// distributed shard-and-merge analysis. The run must have been sharded
// (Config.Shards > 1); the partial carries the shard's vetted trees,
// vetting tally, and raw visits (metrics dumps and trace exports are
// attached by the caller, which owns those registries).
func (r *Results) Partial() (*core.Partial, error) {
	if r.cfg.Shards <= 1 {
		return nil, fmt.Errorf("webmeasure: Partial requires a sharded run (Shards > 1)")
	}
	return r.analysis.Partial(r.cfg.shardPlan(), r.cfg.ShardIndex)
}

// AssembleFromPartials merges one Partial per shard into full Results,
// byte-identical in every export to a single-process run of the same
// config. cfg must carry the same experiment parameters the shard workers
// used (Seed, Sites, TrancoSize, PagesPerSite, Profiles, Shards,
// ShardSeed); the union dataset is rebuilt from the partials' visits in
// shard order.
func AssembleFromPartials(ctx context.Context, cfg Config, parts []*core.Partial) (*Results, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 1 {
		return nil, fmt.Errorf("webmeasure: AssembleFromPartials requires Shards > 1")
	}
	u, sample, boundaries := experimentFrame(cfg)
	filter, skipped := filterlist.Parse(u.FilterListText())
	if skipped != 0 {
		return nil, fmt.Errorf("webmeasure: generated filter list has %d bad rules", skipped)
	}
	ranks := make(map[string]int, len(sample))
	for _, e := range sample {
		ranks[e.Site] = e.Rank
	}
	profs, err := selectProfiles(cfg.Profiles)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(profs))
	for i, p := range profs {
		names[i] = p.Name
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
	analysis, err := core.NewFromPartials(ds, filter, core.Options{
		Profiles: names,
		SiteRank: ranks,
		Workers:  cfg.Workers,
		Metrics:  cfg.Metrics,
	}, cfg.shardPlan(), parts)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: assemble: %w", err)
	}
	return &Results{
		cfg:        cfg,
		universe:   u,
		dataset:    ds,
		analysis:   analysis,
		boundaries: boundaries,
	}, nil
}

// LoadAndAnalyzeSharded is LoadAndAnalyzeShardedContext with a background
// context.
func LoadAndAnalyzeSharded(datasetIn io.Reader, cfg Config) (*Results, error) {
	return LoadAndAnalyzeShardedContext(context.Background(), datasetIn, cfg)
}

// LoadAndAnalyzeShardedContext analyzes a loaded dataset through the
// distributed shard-and-merge pipeline inside one process: it splits the
// dataset into Config.Shards slices of the page-key space, analyzes each
// slice independently, round-trips every Partial through its wire
// encoding, and assembles the merged Results — byte-identical in every
// export to the unsharded analysis, which is what cmd/analyze -shards
// exercises. Shards <= 1 falls back to LoadAndAnalyzeContext. The input
// format is auto-detected; a seekable columnar input (an *os.File) is
// read through its footer index, so each shard decodes only the blocks
// whose page lists intersect its slice.
func LoadAndAnalyzeShardedContext(ctx context.Context, datasetIn io.Reader, cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 1 {
		return LoadAndAnalyzeContext(ctx, datasetIn, cfg)
	}
	if ra, size, ok := readerAtSize(datasetIn); ok {
		head := make([]byte, len(colstore.Magic))
		if n, _ := ra.ReadAt(head, 0); colstore.Sniff(head[:n]) {
			return loadAndAnalyzeShardedCol(ctx, ra, size, cfg)
		}
	}
	ds, err := dataset.ReadAuto(datasetIn)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
	}
	plan := cfg.shardPlan()
	parts := make([]*core.Partial, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		keep := plan.Keep(i)
		shardDS := ds.FilterPages(func(k dataset.PageKey) bool { return keep(k.Site, k.PageURL) })
		if err := analyzeShard(ctx, cfg, i, shardDS, parts); err != nil {
			return nil, err
		}
	}
	return AssembleFromPartials(ctx, cfg, parts)
}

// loadAndAnalyzeShardedCol runs the in-process shard-and-merge pipeline
// against a random-access columnar dataset: each shard consults the
// footer index's per-block page lists and decodes only the blocks
// holding pages of its slice — the I/O pattern a remote shard worker
// with the file on shared storage would use.
func loadAndAnalyzeShardedCol(ctx context.Context, ra io.ReaderAt, size int64, cfg Config) (*Results, error) {
	colr, err := dataset.OpenCol(ra, size)
	if err != nil {
		return nil, fmt.Errorf("webmeasure: load dataset: %w", err)
	}
	plan := cfg.shardPlan()
	parts := make([]*core.Partial, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		keep := plan.Keep(i)
		shardDS := dataset.New()
		for bi, meta := range colr.Index().Blocks {
			hit := false
			for _, page := range meta.Pages {
				if keep(meta.Site, page) {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			sb, err := colr.Block(bi)
			if err != nil {
				return nil, fmt.Errorf("webmeasure: shard %d/%d: %w", i, cfg.Shards, err)
			}
			for _, v := range sb.Visits {
				if keep(v.Site, v.PageURL) {
					shardDS.Add(v)
				}
			}
		}
		if err := analyzeShard(ctx, cfg, i, shardDS, parts); err != nil {
			return nil, err
		}
	}
	return AssembleFromPartials(ctx, cfg, parts)
}

// analyzeShard analyzes one shard's slice and stores its wire-round-
// tripped Partial in parts[i].
func analyzeShard(ctx context.Context, cfg Config, i int, shardDS *dataset.Dataset, parts []*core.Partial) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("webmeasure: sharded analysis canceled: %w", err)
	}
	shardCfg := cfg
	shardCfg.ShardIndex = i
	u, sample, boundaries := experimentFrame(shardCfg)
	res, err := AnalyzeContext(ctx, shardDS, u, sample, boundaries, shardCfg)
	if err != nil {
		return fmt.Errorf("webmeasure: shard %d/%d: %w", i, cfg.Shards, err)
	}
	part, err := res.Partial()
	if err != nil {
		return err
	}
	// Round-trip through the wire form so the in-process path exercises
	// exactly what a remote worker ships.
	wire, err := part.Encode()
	if err != nil {
		return err
	}
	parts[i], err = core.DecodePartial(wire)
	return err
}

// readerAtSize reports whether r supports random access from its start,
// returning the ReaderAt view and total size. Only a reader positioned
// at offset zero qualifies — a partially-consumed stream cannot be
// safely re-read by offset.
func readerAtSize(r io.Reader) (io.ReaderAt, int64, bool) {
	ras, ok := r.(interface {
		io.ReaderAt
		io.Seeker
	})
	if !ok {
		return nil, 0, false
	}
	cur, err := ras.Seek(0, io.SeekCurrent)
	if err != nil || cur != 0 {
		return nil, 0, false
	}
	size, err := ras.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, false
	}
	if _, err := ras.Seek(0, io.SeekStart); err != nil {
		return nil, 0, false
	}
	return ras, size, true
}
