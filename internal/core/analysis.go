// Package core is the paper's analysis pipeline: it vets the crawled
// dataset (pages successful in all profiles), builds the five dependency
// trees per page, cross-compares them, and computes every table and figure
// of the evaluation (§4, §5, appendices E–G).
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"webmeasure/internal/dataset"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
	"webmeasure/internal/trace"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
	"webmeasure/internal/urlutil"
)

// PageAnalysis holds one vetted page's trees and their cross-comparison.
type PageAnalysis struct {
	Key dataset.PageKey
	// Trees follows Analysis.Profiles order; with partial vetting
	// (Options.MinSuccessProfiles) failed profiles are simply absent, so
	// use TreeFor for profile lookups.
	Trees []*tree.Tree
	Cmp   *treediff.Comparison
	// Attribution scores the page's trees against the ground truth of the
	// visits they were built from; Analysis.Attribution sums it.
	Attribution AttributionReport
	// visits holds what the timing report and the cookie study read of
	// the page's visits, one entry per analysis profile, in order.
	visits []profileVisit
}

// profileVisit is what the timing report and the cookie study read of one
// profile's visit to a vetted page (the zero value when there is none).
// The per-page pass copies it out while the visit is at hand, so no table
// reads a visit back later: a columnar load reuses every visit's arrays
// for the next site block.
type profileVisit struct {
	success      bool
	durationMS   int
	startOffsetS float64
	cookies      []measurement.CookieObservation
}

// captureVisits copies what profileVisit keeps of each profile's visit in
// pv (nil reads as no visits).
func captureVisits(pv *dataset.PageVisits, profiles []string) []profileVisit {
	out := make([]profileVisit, len(profiles))
	if pv == nil {
		return out
	}
	for i, prof := range profiles {
		if v := pv.ByProfile[prof]; v != nil {
			out[i] = profileVisit{success: v.Success, durationMS: v.DurationMS,
				startOffsetS: v.StartOffsetS, cookies: slices.Clone(v.Cookies)}
		}
	}
	return out
}

// TreeFor returns the page's tree for a profile, or nil.
func (pa *PageAnalysis) TreeFor(profile string) *tree.Tree {
	if i := pa.treeIndex(profile); i >= 0 {
		return pa.Trees[i]
	}
	return nil
}

// treeIndex returns the index of a profile's tree in Trees (and in Cmp),
// or -1.
func (pa *PageAnalysis) treeIndex(profile string) int {
	for i, t := range pa.Trees {
		if t.Profile == profile {
			return i
		}
	}
	return -1
}

// Analysis is the fully-computed experiment analysis.
type Analysis struct {
	// ds receives the visits WriteSite adds; Partial ships them. It is
	// nil when the stream was given none (a columnar load), and no table
	// reads it.
	ds       *dataset.Dataset
	profiles []string

	pages   []*PageAnalysis
	vetting Vetting
	// tally counts the input's visits for the crawl summary.
	tally visitTally
	// siteRank maps site → Tranco rank for the Appendix F bucket analysis
	// (may be empty when unknown).
	siteRank map[string]int
	// metrics times the derived analysis phases (nil-safe).
	metrics *metrics.Registry
}

// phaseTimer times one derived analysis phase (case studies, stability)
// under "analysis.<name>_ms"; usage: defer a.phaseTimer("stability")().
func (a *Analysis) phaseTimer(name string) func() {
	return a.metrics.Histogram("analysis." + name + "_ms").Time()
}

// Options configures New.
type Options struct {
	// Profiles fixes the tree ordering; defaults to the dataset's sorted
	// profile names. The first profile whose name is "Sim1" is used as the
	// Table 6 reference regardless of order.
	Profiles []string
	// SiteRank supplies Tranco ranks for the bucket analysis.
	SiteRank map[string]int
	// MinSuccessProfiles relaxes the paper's vetting for the no-vetting
	// ablation: pages succeed with at least this many profiles (0 = the
	// paper's rule, all profiles must succeed).
	MinSuccessProfiles int
	// AllowDegraded admits visits that succeeded but were truncated by an
	// injected fault (Visit.Clean() false). Off by default: the paper's
	// vetting demands consistently *clean* loads, and a half-observed
	// page would register as dissimilarity that is an artifact of the
	// measurement, not the page.
	AllowDegraded bool
	// TreeBuilder overrides the default builder (ablations on node
	// identity and attribution signals). The analysis builds with a copy
	// whose Filter is the filter list the analysis was given; the caller's
	// builder is not modified.
	TreeBuilder *tree.Builder
	// Workers bounds the worker pool that fans the per-page work —
	// vetting, tree building, cross-comparison — out over CPUs; the
	// pages are independent, so the pipeline is embarrassingly parallel.
	// Results are merged back in page-key order, making the analysis
	// byte-identical for every worker count. 0 or negative =
	// runtime.GOMAXPROCS(0).
	Workers int
	// Metrics, if non-nil, receives progress counters and phase timings
	// (metric names are listed in the internal/metrics package comment).
	Metrics *metrics.Registry
	// Context, if non-nil, cancels the per-page analysis between pages —
	// the hook a job server needs to abort a long analysis mid-flight.
	// New returns the context's error when it fires.
	Context context.Context
	// Tracer, if non-nil, records analysis spans (analyze.vet,
	// analyze.build per profile, analyze.compare with treediff.intern /
	// treediff.fill children) on each page's trace. Timestamps come from
	// a deterministic work-proportional cost model, not the wall clock,
	// so traces stay byte-identical across worker counts.
	Tracer *trace.Tracer
}

// New builds the analysis: vetting, tree construction, cross-comparison.
// filter may be nil (no tracking classification). The per-page work runs
// on Options.Workers goroutines; because pages are analyzed independently
// and merged in page-key order, the result is identical (byte for byte in
// every export) regardless of worker count.
func New(ds *dataset.Dataset, filter *filterlist.List, opts Options) (*Analysis, error) {
	profiles := opts.Profiles
	if len(profiles) == 0 {
		profiles = ds.Profiles()
	}
	s, err := newStream(ds, filter, opts, profiles)
	if err != nil {
		return nil, err
	}
	if err := s.AddDataset(ds); err != nil {
		return nil, err
	}
	return s.Finish()
}

// Stream builds an Analysis incrementally, one site at a time, in
// whatever order the input yields the sites: a crawl's site-list order,
// a columnar file's block order, or a dataset's sorted order. Finish sorts
// the vetted pages into page-key order, so the result is byte-identical
// in every export to New's over the same visits, for any arrival order.
type Stream struct {
	a     *Analysis
	w     pageWorker
	ctx   context.Context
	opts  Options
	sites map[string]bool
	done  bool
}

// NewStream starts an incremental analysis. ds receives the visits
// WriteSite adds, for Analysis.Partial to ship and Analysis.Dataset to
// return; it may be nil when no site arrives through WriteSite. Every
// table reads what the stream captured while each site's visits were at
// hand, so a caller of AddSite or AddSiteVisits may drop or reuse the
// visits once the call returns.
// Unlike New, the profile order cannot be inferred from a dataset that
// does not exist yet, so Options.Profiles is required.
func NewStream(ds *dataset.Dataset, filter *filterlist.List, opts Options) (*Stream, error) {
	if len(opts.Profiles) == 0 {
		return nil, fmt.Errorf("core: streaming analysis requires Options.Profiles (the dataset is not yet loaded to infer them)")
	}
	return newStream(ds, filter, opts, opts.Profiles)
}

func newStream(ds *dataset.Dataset, filter *filterlist.List, opts Options, profiles []string) (*Stream, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("core: dataset has no profiles")
	}
	a := &Analysis{
		ds:       ds,
		profiles: profiles,
		tally:    newVisitTally(),
		siteRank: opts.SiteRank,
		metrics:  opts.Metrics,
	}
	builder := &tree.Builder{}
	if opts.TreeBuilder != nil {
		*builder = *opts.TreeBuilder
	}
	builder.Filter = filter
	minSuccess := opts.MinSuccessProfiles
	if minSuccess <= 0 || minSuccess > len(profiles) {
		minSuccess = len(profiles)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// addBatch counts each dropped page under its reason; registering all
	// four up front makes a reason nothing hit read 0 instead of missing.
	for _, reason := range []string{ExcludeMissing, ExcludeFailed, ExcludeDegraded, ExcludeBuild} {
		opts.Metrics.Counter("analysis.pages.excluded." + reason)
	}
	return &Stream{
		a: a,
		w: pageWorker{
			profiles:      profiles,
			builder:       builder,
			minSuccess:    minSuccess,
			allowDegraded: opts.AllowDegraded,
			tracer:        opts.Tracer,
			pagesSeen:     opts.Metrics.Counter("analysis.pages"),
			pagesOK:       opts.Metrics.Counter("analysis.pages.vetted"),
			trees:         opts.Metrics.Counter("analysis.trees"),
			treesFail:     opts.Metrics.Counter("analysis.trees.failed"),
			pageMS:        opts.Metrics.Histogram("analysis.page_ms"),
		},
		ctx:   ctx,
		opts:  opts,
		sites: make(map[string]bool),
	}, nil
}

// AddSite analyzes one site's page groups. Sites may arrive in any order,
// each at most once. keys, when non-nil, is the site's pre-interned
// normalization cache (SiteBlock.KeyCache), which the tree builds use in
// place of a per-page table. The crawl summary counts one visit per
// group entry; AddSiteVisits also counts a repeated (page, profile)
// visit. AddSite returns once every page of the site is analyzed.
func (s *Stream) AddSite(site string, pages []*dataset.PageVisits, keys *urlutil.KeyCache) error {
	if err := s.check(site); err != nil {
		return err
	}
	for _, pv := range pages {
		if pv.Key.Site != site {
			return fmt.Errorf("core: page of site %q in batch for %q", pv.Key.Site, site)
		}
	}
	s.sites[site] = true
	s.a.tally.add(pages, nil)
	return s.addBatch(pages, keys)
}

// AddSiteVisits groups one site's visits into pages and analyzes them as
// AddSite does, and the crawl summary counts every one of them. It
// returns only after the per-page pool has drained, and nothing the
// analysis keeps points into visits or keys, so the caller may overwrite
// both for the next site (colstore.ScanScratch) once it returns.
func (s *Stream) AddSiteVisits(site string, visits []*measurement.Visit, keys *urlutil.KeyCache) error {
	if err := s.check(site); err != nil {
		return err
	}
	for _, v := range visits {
		if v.Site != site {
			return fmt.Errorf("core: visit of site %q in batch for %q", v.Site, site)
		}
	}
	s.sites[site] = true
	pages := dataset.GroupVisits(visits)
	s.a.tally.add(pages, visits)
	return s.addBatch(pages, keys)
}

// AddDataset analyzes every page of ds in one batch, and the crawl
// summary counts every visit ds holds. None of its sites may have been
// added before.
func (s *Stream) AddDataset(ds *dataset.Dataset) error {
	pages := ds.Pages()
	for i, pv := range pages {
		if i > 0 && pv.Key.Site == pages[i-1].Key.Site {
			continue
		}
		if err := s.check(pv.Key.Site); err != nil {
			return err
		}
		s.sites[pv.Key.Site] = true
	}
	s.a.tally.add(pages, ds.Visits())
	return s.addBatch(pages, nil)
}

// check refuses a site after Finish or a second time.
func (s *Stream) check(site string) error {
	if s.done {
		return fmt.Errorf("core: AddSite after Finish")
	}
	if s.sites[site] {
		return fmt.Errorf("core: site %q added twice", site)
	}
	return nil
}

// WriteSite adds one site's visits to the stream's dataset and analyzes
// the site: the crawler.SiteSink form of AddSiteVisits, through which a
// crawl feeds the analysis as it emits each site.
func (s *Stream) WriteSite(site string, visits []*measurement.Visit) error {
	if err := s.AddSiteVisits(site, visits, nil); err != nil {
		return err
	}
	for _, v := range visits {
		s.a.ds.Add(v)
	}
	return nil
}

// addBatch fans one batch of page groups over the worker pool and merges
// the results. Per-page work carries no cross-page state (the trace cost
// model runs on a per-page cursor), so splitting the page list into
// batches cannot change any output.
func (s *Stream) addBatch(pages []*dataset.PageVisits, keys *urlutil.KeyCache) error {
	results := make([]pageResult, len(pages))
	w := s.w
	w.keys = keys
	forEachPage(s.ctx, s.opts.Workers, len(pages), func(i int) { results[i] = w.analyze(pages[i]) })
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("core: analysis canceled: %w", err)
	}
	// Aggregate the vetting tally after the pool drains, so the counts
	// are independent of worker scheduling.
	for _, r := range results {
		s.a.vetting.count(r.excluded)
		if r.pa != nil {
			s.a.pages = append(s.a.pages, r.pa)
		} else {
			s.opts.Metrics.Counter("analysis.pages.excluded." + r.excluded).Inc()
		}
	}
	return nil
}

// forEachPage is the per-page worker pool: it runs fn(i) for every i in
// [0, n) on up to workers goroutines (0 or negative = GOMAXPROCS) and
// stops handing out indices once ctx is done. fn writes into slot i of
// the caller's result slice, so the merge never depends on scheduling.
func forEachPage(ctx context.Context, workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Finish seals the stream and returns the analysis, its vetted pages
// sorted by (site, page URL). A page key added twice is an error. An
// analysis whose vetting kept no page is still a result; its vetting
// tally says why each page was excluded.
func (s *Stream) Finish() (*Analysis, error) {
	if s.done {
		return nil, fmt.Errorf("core: Finish called twice")
	}
	s.done = true
	a := s.a
	sort.Slice(a.pages, func(i, j int) bool { return a.pages[i].Key.Less(a.pages[j].Key) })
	for i := 1; i < len(a.pages); i++ {
		if k := a.pages[i].Key; k == a.pages[i-1].Key {
			return nil, fmt.Errorf("core: page %s/%s added more than once", k.Site, k.PageURL)
		}
	}
	return a, nil
}

// pageWorker carries the read-only inputs and metric instruments of the
// per-page analysis; a single value is shared by all pool goroutines
// (the builder, filter list, and instruments are concurrency-safe).
type pageWorker struct {
	profiles      []string
	builder       *tree.Builder
	minSuccess    int
	allowDegraded bool
	tracer        *trace.Tracer
	// keys, when non-nil, is the current site block's pre-interned
	// normalization cache; without one, each page builds its own.
	keys *urlutil.KeyCache

	pagesSeen, pagesOK, trees, treesFail *metrics.Counter
	pageMS                               *metrics.Histogram
}

// Analysis span timestamps are simulated: a work-proportional cost model
// on a per-page cursor, not the wall clock, so exported traces are
// byte-identical for every worker count. The base plants the analysis
// block past the crawl's timeline (offset tail ~6 min + retry budget);
// the per-unit costs are arbitrary but fixed — span *proportions* carry
// the signal (a 400-request page's build span is 4× a 100-request one's).
const (
	analysisBaseUS      = 600_000_000 // 10 simulated minutes
	vetCostUSPerProfile = 50
	buildCostUSPerReq   = 20
	internCostUSPerNode = 2
	fillCostUSPerNode   = 5
)

// analyzeSpans instruments one page's analysis on its trace (the same
// trace the crawl opened for the page, joined by key). Nil when tracing
// is off or the page was sampled out.
type analyzeSpans struct {
	tr     *trace.Trace
	cursor int64
}

func (w *pageWorker) startSpans(pv *dataset.PageVisits) *analyzeSpans {
	tr := w.tracer.Trace("page", pv.Key.Site+"|"+pv.Key.PageURL)
	if tr == nil {
		return nil
	}
	return &analyzeSpans{tr: tr, cursor: analysisBaseUS}
}

// vet records the vetting span: one eligibility sweep over the profiles.
func (s *analyzeSpans) vet(profiles, eligible int, excluded string) {
	if s == nil {
		return
	}
	sp := s.tr.Span(nil, "analyze.vet", "", s.cursor)
	sp.SetAttrInt("profiles", profiles).SetAttrInt("eligible", eligible)
	if excluded != "" {
		sp.SetAttr("excluded", excluded)
	}
	s.cursor += int64(profiles) * vetCostUSPerProfile
	sp.End(s.cursor)
}

// build records one profile's tree-build span, costed by request count.
func (s *analyzeSpans) build(profile string, requests int, t *tree.Tree, err error) {
	if s == nil {
		return
	}
	sp := s.tr.Span(nil, "analyze.build", profile, s.cursor)
	sp.SetAttr("profile", profile).SetAttrInt("requests", requests)
	s.cursor += int64(requests)*buildCostUSPerReq + buildCostUSPerReq
	if err != nil {
		sp.SetAttr("error", "build failed")
	} else {
		sp.SetAttrInt("nodes", t.NodeCount())
	}
	sp.End(s.cursor)
}

// compare records the cross-comparison span with the treediff kernel's
// two internal stages as children: interning (costed by total input
// nodes) and the per-node fill (costed by union nodes).
func (s *analyzeSpans) compare(trees []*tree.Tree, cmp *treediff.Comparison) {
	if s == nil {
		return
	}
	totalNodes := 0
	for _, t := range trees {
		totalNodes += t.NodeCount()
	}
	sp := s.tr.Span(nil, "analyze.compare", "", s.cursor)
	sp.SetAttrInt("trees", len(trees)).SetAttrInt("union_nodes", len(cmp.Nodes))
	intern := s.tr.Span(sp, "treediff.intern", "", s.cursor)
	intern.SetAttrInt("nodes", totalNodes)
	s.cursor += int64(totalNodes) * internCostUSPerNode
	intern.End(s.cursor)
	fill := s.tr.Span(sp, "treediff.fill", "", s.cursor)
	fill.SetAttrInt("nodes", len(cmp.Nodes))
	s.cursor += int64(len(cmp.Nodes)) * fillCostUSPerNode
	fill.End(s.cursor)
	sp.End(s.cursor)
}

// pageResult is one slot of the merge: the page's analysis when it was
// vetted, or the exclusion reason (one of the Exclude* constants) when
// it was dropped.
type pageResult struct {
	pa       *PageAnalysis
	excluded string
}

// analyze vets one page group, builds its trees, cross-compares them and
// scores their attribution. A page that fails vetting yields a nil
// analysis plus the most severe exclusion reason among its visits. The
// stages run back to back per page (vetting → build → compare → score)
// and the first three are traced; the exclusion ranking is a max over
// reasons, so splitting the stages cannot change which reason wins. Trees
// are built only for pages with enough eligible profiles, through one URL
// table per page (the block's when the caller passed one): every tree
// then takes the int32-id path, each distinct URL is normalized once per
// page rather than once per request, and the scorer resolves its URLs
// through the same table.
func (w *pageWorker) analyze(pv *dataset.PageVisits) pageResult {
	defer w.pageMS.Time()()
	w.pagesSeen.Inc()
	spans := w.startSpans(pv)
	pa := &PageAnalysis{Key: pv.Key}
	worst := ""
	flag := func(reason string) {
		if exclusionRank(reason) > exclusionRank(worst) {
			worst = reason
		}
	}
	// Vetting: the per-profile eligibility sweep (the paper's "successfully
	// and consistently visited" rule).
	type candidate struct {
		profile string
		v       *measurement.Visit
	}
	var eligible []candidate
	for _, prof := range w.profiles {
		v := pv.ByProfile[prof]
		switch {
		case v == nil:
			flag(ExcludeMissing)
		case !v.Success:
			flag(ExcludeFailed)
		case !v.Clean() && !w.allowDegraded:
			flag(ExcludeDegraded)
		default:
			eligible = append(eligible, candidate{profile: prof, v: v})
		}
	}
	spans.vet(len(w.profiles), len(eligible), worst)
	if len(eligible) < w.minSuccess {
		// Every missing profile carries a reason ranked above
		// ExcludeBuild, so no build failure could change the verdict.
		return pageResult{excluded: worst}
	}
	keys := w.keys
	if keys == nil && !w.builder.RawURLIdentity {
		visits := make([]*measurement.Visit, len(eligible))
		for i, c := range eligible {
			visits[i] = c.v
		}
		keys = pageKeys(visits)
	}
	// Tree construction, one tree per eligible profile.
	for _, c := range eligible {
		t, err := w.builder.BuildKeyed(c.v, keys)
		spans.build(c.profile, len(c.v.Requests), t, err)
		if err != nil {
			// Success flags guarantee requests; a build failure means
			// a malformed record — skip the visit rather than abort.
			w.treesFail.Inc()
			flag(ExcludeBuild)
			continue
		}
		w.trees.Inc()
		pa.Trees = append(pa.Trees, t)
	}
	if len(pa.Trees) < w.minSuccess {
		if worst == "" {
			worst = ExcludeBuild
		}
		return pageResult{excluded: worst}
	}
	// Cross-comparison over the page's trees.
	pa.Cmp = treediff.Compare(pa.Trees)
	spans.compare(pa.Trees, pa.Cmp)
	pa.Attribution = w.attribution(pa.Trees, pv.ByProfile, keys)
	pa.visits = captureVisits(pv, w.profiles)
	w.pagesOK.Inc()
	return pageResult{pa: pa}
}

// rawsPool recycles pageKeys' list of URL occurrences. BuildKeyCache keeps
// the strings, not the list, and the list is cleared before it goes back,
// so a pooled list retains no URL.
var rawsPool = sync.Pool{New: func() any { return new([]string) }}

// pageKeys builds the transient URL table of one page's visits from
// every URL they hold (measurement.Visit.AppendURLs). The profiles'
// visits to one page mostly request the same URLs, so the table is sized
// for twice the largest visit's requests rather than for every
// occurrence.
func pageKeys(visits []*measurement.Visit) *urlutil.KeyCache {
	scratch := rawsPool.Get().(*[]string)
	raws, most := (*scratch)[:0], 0
	for _, v := range visits {
		raws = v.AppendURLs(raws)
		most = max(most, len(v.Requests))
	}
	keys := urlutil.BuildKeyCache(raws, 2*most+1)
	clear(raws)
	*scratch = raws[:0]
	rawsPool.Put(scratch)
	return keys
}

// Profiles returns the profile order used for tree indexing.
func (a *Analysis) Profiles() []string { return a.profiles }

// Pages returns the vetted page analyses.
func (a *Analysis) Pages() []*PageAnalysis { return a.pages }

// Vetting returns the vetting-stage tally: pages seen, vetted, and
// excluded by reason.
func (a *Analysis) Vetting() Vetting { return a.vetting }

// Dataset returns the dataset the stream was given: nil for a columnar
// load, which keeps no visit.
func (a *Analysis) Dataset() *dataset.Dataset { return a.ds }

// profileIndex returns the tree index of a profile name, -1 if absent.
func (a *Analysis) profileIndex(name string) int {
	for i, p := range a.profiles {
		if p == name {
			return i
		}
	}
	return -1
}

// eachNonRootNode visits every non-root NodeInfo.
func (a *Analysis) eachNonRootNode(fn func(pa *PageAnalysis, ni *treediff.NodeInfo)) {
	for _, pa := range a.pages {
		rootKey := pa.Trees[0].Root.Key
		for key, ni := range pa.Cmp.Nodes {
			if key == rootKey {
				continue
			}
			fn(pa, ni)
		}
	}
}
