// Package crawler orchestrates the semi-parallel measurement (§3.1,
// Appendix C): a commander hands each site to every profile's client
// ("VM") simultaneously and waits until all clients finished the site's
// pages before moving on — site visits are synchronized, page visits are
// not. Each client runs a pool of browser instances, enforces the page
// timeout, and suffers injected network-level failures so the per-profile
// success rate matches the paper's (≥89%).
//
// Sites themselves are crawled by a bounded worker pool (Config.
// SiteWorkers): each worker runs one site's whole profile barrier,
// recording straight into the run's metrics registry and tracer, and a
// deterministic sequencer hands finished sites to the dataset or the
// streaming sink in site-list order. Every visit is a pure function of
// (seed, profile, page), counters are atomic integer sums, and trace
// exports sort traces and spans canonically, so the output bytes are
// identical for every worker count; only the wall clock changes.
package crawler

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"webmeasure/internal/browser"
	"webmeasure/internal/cookies"
	"webmeasure/internal/dataset"
	"webmeasure/internal/faults"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
	"webmeasure/internal/trace"
	"webmeasure/internal/tranco"
	"webmeasure/internal/webgen"
)

// networkFailureProb is the per-(page, profile) probability of a failure
// outside the browser (DNS, routing, saturated uplink). Together with the
// browser's own failure probability the per-profile failure rate is ~11%,
// the paper's mean.
const networkFailureProb = 0.08

// Config parameterizes a crawl.
type Config struct {
	// Universe generates the sites' pages.
	Universe *webgen.Universe
	// Profiles to run; one client per profile. Defaults to the paper's
	// five (browser.DefaultProfiles).
	Profiles []browser.Profile
	// Sites to visit.
	Sites []tranco.Entry
	// MaxPages bounds the subpages visited per site in addition to the
	// landing page (the paper collects 25). 0 = all generated pages.
	MaxPages int
	// Instances is the number of parallel browser instances per client
	// (the paper runs 15 per VM). 0 = 15.
	Instances int
	// Seed individualizes the crawl's volatile behaviour (visit nonces).
	Seed int64
	// Stateful preserves the browser state (cookie jar) across the pages
	// of a site within each client — the alternative design choice
	// Appendix C discusses. Stateful clients visit pages sequentially
	// (browser state is per session), so Instances is ignored. The
	// default is the paper's stateless mode, where visit order cannot
	// affect results.
	Stateful bool
	// Epoch selects the web's point in time (webgen.GenerateSiteAt):
	// 0 = the base snapshot; higher values accumulate content churn,
	// tracker swaps, and page turnover. Crawling the same seed at two
	// epochs yields the longitudinal-comparability experiment.
	Epoch int
	// Resume, if non-nil, is a previously collected (possibly partial)
	// dataset: visits already present there are reused instead of being
	// re-performed, so an interrupted multi-day crawl continues where it
	// stopped. Only successful visits are reused; failures are retried.
	Resume *dataset.Dataset
	// SiteWorkers bounds the site-level worker pool: how many sites are
	// crawled concurrently. Output bytes are identical for every value —
	// the sequencer emits sites in list order regardless of completion
	// order — so this is purely a wall-clock/memory knob. 0 = GOMAXPROCS.
	SiteWorkers int
	// Progress, if non-nil, receives the site index after each site is
	// emitted, strictly in site-list order (monitoring hook for the
	// commander UI).
	Progress func(done, total int)
	// Sink, if non-nil, receives each emitted site's visits in site-list
	// order — a streaming dataset writer (dataset.SiteWriter) or a
	// streaming analysis (core.Stream). The visits then go only to the
	// sink: Run keeps no dataset, so a crawl's own peak memory is bounded
	// by the in-flight reorder window instead of the whole dataset.
	Sink SiteSink
	// Metrics, if non-nil, receives live crawl counters and timings
	// (crawl.sites, crawl.visits, crawl.visit_ms, …; the full name list
	// is in the internal/metrics package comment). Snapshot it from
	// another goroutine for progress lines while the crawl runs.
	Metrics *metrics.Registry
	// Faults injects deterministic per-attempt failures (errors, 5xx,
	// latency, truncation, redirect loops) into every page fetch. The
	// zero value injects nothing — the seed pipeline's clean network.
	// Injected faults are the only failures visitPage retries: the
	// baseline failure modes are session-persistent and retrying them
	// would only skew the paper's ~11% failure calibration.
	Faults faults.Profile
	// Tracer, if non-nil, records one trace per page: a crawl.visit span
	// per profile with crawl.fetch/crawl.backoff children carrying fault
	// kind and attempt attributes, on the crawl's simulated-time axis
	// (StartOffsetS + accumulated render/backoff milliseconds), so traces
	// are byte-identical for any worker count.
	Tracer *trace.Tracer
	// PageFilter, if non-nil, restricts the crawl to the pages it accepts
	// (a shard's slice of the page-key space). Every visit is a pure
	// function of (seed, profile, page), so a filtered crawl records
	// exactly the bytes the full crawl would for the kept pages. In
	// stateful mode rejected pages are still visited — the shared cookie
	// jar must advance exactly as in the full crawl — but nothing about
	// them is recorded. Page-granular stats and metrics (pages, visits,
	// attempts, retries, injected faults) sum to the unsharded run's
	// values across a disjoint filter family; site-granular ones
	// (crawl.sites, crawl.site_ms) count a site once per shard touching it.
	PageFilter func(site, pageURL string) bool
}

// visitPage's retry schedule: at most maxAttempts fetches per visit,
// with exponential backoff from baseBackoffMS capped at maxBackoffMS per
// step, plus deterministic jitter, accrued against a budgetMS budget of
// simulated render and backoff time. No wall clock is consulted, so the
// schedule is identical for every worker count.
const (
	maxAttempts   = 3
	baseBackoffMS = 500
	maxBackoffMS  = 8_000
	budgetMS      = 60_000
)

// backoffMS computes the simulated wait before retrying after the given
// attempt (0-based): exponential growth, capped, plus up to 50%
// deterministic jitter derived from the visit's entropy.
func backoffMS(attempt int, pageSeed, nonce uint64) int {
	step := baseBackoffMS << uint(attempt)
	if step > maxBackoffMS || step <= 0 {
		step = maxBackoffMS
	}
	jitter := webgen.RollProb(pageSeed, nonce, "crawler", fmt.Sprintf("backoff%d", attempt))
	return step + int(jitter*float64(step)/2)
}

// Stats summarizes a crawl.
type Stats struct {
	SitesVisited    int
	PagesDiscovered int
	VisitsTotal     int
	VisitsFailed    int
	// VisitsDegraded counts successful visits whose observation an
	// injected fault truncated (partial loads).
	VisitsDegraded int
	// VisitsRetried counts visits that needed more than one attempt.
	VisitsRetried int
	// AttemptsTotal counts fetch attempts across all performed visits.
	AttemptsTotal int
	// VisitsReused counts visits taken from Config.Resume.
	VisitsReused int
}

// SiteSink receives each emitted site's visits, in site-list order, from
// the single emission goroutine. dataset.SiteWriter implementations
// satisfy it (Close stays with the caller, which owns the output).
type SiteSink interface {
	WriteSite(site string, visits []*measurement.Visit) error
}

// add folds another site's stats into the run totals.
func (s *Stats) add(o Stats) {
	s.SitesVisited += o.SitesVisited
	s.PagesDiscovered += o.PagesDiscovered
	s.VisitsTotal += o.VisitsTotal
	s.VisitsFailed += o.VisitsFailed
	s.VisitsDegraded += o.VisitsDegraded
	s.VisitsRetried += o.VisitsRetried
	s.AttemptsTotal += o.AttemptsTotal
	s.VisitsReused += o.VisitsReused
}

// crawlRun is the resolved, immutable state a crawl's site workers share.
type crawlRun struct {
	cfg       Config
	profiles  []browser.Profile
	instances int
	// transport is the run's fault injector, nil when it injects nothing.
	// Its decisions are pure functions of (seed, profile, page, attempt),
	// so every site worker shares it.
	transport browser.Transport
	// replayTransport is an uninstrumented twin of transport for the
	// off-shard pages a stateful crawl replays only to advance its cookie
	// jar: it decides the same faults without counting them, so injected
	// fault counts sum across a disjoint page-filter family.
	replayTransport browser.Transport
	// profileVisitMS holds the per-profile crawl.visit_ms histograms, in
	// profile order.
	profileVisitMS []*metrics.Histogram
	// resume indexes Config.Resume's visits by page, nil without one.
	resume map[dataset.PageKey]*dataset.PageVisits
}

// Run executes the crawl and returns the collected dataset, or a nil one
// when Config.Sink receives the visits instead. Sites are crawled by
// Config.SiteWorkers concurrent workers and emitted in site-list order;
// the context cancels dispatch between sites (in-flight sites finish, the
// contiguous emitted prefix is kept, and ctx.Err() is returned). Workers
// record into Config.Metrics and Config.Tracer as they crawl, so after a
// canceled or failed run those also hold sites that were crawled but
// never emitted; the returned Stats and dataset hold only the emitted
// prefix.
func Run(ctx context.Context, cfg Config) (*dataset.Dataset, Stats, error) {
	if cfg.Universe == nil {
		return nil, Stats{}, fmt.Errorf("crawler: Config.Universe is required")
	}
	if len(cfg.Sites) == 0 {
		return nil, Stats{}, fmt.Errorf("crawler: no sites to crawl")
	}
	inj, err := faults.New(cfg.Seed, cfg.Faults)
	if err != nil {
		return nil, Stats{}, err
	}
	inj.InstrumentWith(cfg.Metrics)

	c := &crawlRun{
		cfg:       cfg,
		profiles:  cfg.Profiles,
		instances: cfg.Instances,
	}
	if len(c.profiles) == 0 {
		c.profiles = browser.DefaultProfiles()
	}
	if c.instances <= 0 {
		c.instances = 15
	}
	if cfg.Resume != nil {
		c.resume = make(map[dataset.PageKey]*dataset.PageVisits)
		for _, pv := range dataset.GroupVisits(cfg.Resume.Visits()) {
			c.resume[pv.Key] = pv
		}
	}
	if inj.Enabled() {
		c.transport = inj
		replay, _ := faults.New(cfg.Seed, cfg.Faults) // validated just above
		c.replayTransport = replay
	}
	// Register every run-level instrument up front, so snapshots taken
	// before the first site finishes already list them (adding zero
	// registers the counters).
	Stats{}.record(cfg.Metrics)
	cfg.Metrics.Histogram("crawl.visit_ms")
	cfg.Metrics.Histogram("crawl.site_ms")
	for _, p := range c.profiles {
		c.profileVisitMS = append(c.profileVisitMS, cfg.Metrics.Histogram(metrics.Labeled("crawl.visit_ms", "profile", p.Name)))
	}

	workers := cfg.SiteWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfg.Sites) {
		workers = len(cfg.Sites)
	}
	// The reorder window bounds how far completed sites may run ahead of
	// the emission cursor: a permit is taken before a site is dispatched
	// and released when the site is emitted (or the run aborts). A slow
	// head site therefore stalls dispatch after window sites instead of
	// letting finished sites pile up without bound — the backpressure that
	// keeps streaming crawls at O(window) memory.
	window := 2 * workers
	permits := make(chan struct{}, window)
	jobs := make(chan int)
	results := make(chan *siteResult, window)

	dispatchCtx, stopDispatch := context.WithCancel(ctx)
	defer stopDispatch()
	go func() {
		defer close(jobs)
		for si := range cfg.Sites {
			select {
			case permits <- struct{}{}:
			case <-dispatchCtx.Done():
				return
			}
			select {
			case jobs <- si:
			case <-dispatchCtx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range jobs {
				results <- c.crawlSite(si)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var ds *dataset.Dataset
	if cfg.Sink == nil {
		ds = dataset.New()
	}
	var stats Stats
	var runErr error
	seq := newSequencer(func(r *siteResult) error {
		defer func() { <-permits }()
		if runErr != nil {
			// Drain mode after a failure: release window slots, emit nothing.
			return nil
		}
		return c.emit(r, ds, &stats)
	})
	for r := range results {
		if err := seq.offer(r); err != nil {
			runErr = err
			stopDispatch()
		}
	}
	if runErr != nil {
		return ds, stats, runErr
	}
	if err := ctx.Err(); err != nil {
		return ds, stats, err
	}
	return ds, stats, nil
}

// record adds a site's (or a run's) tallies to the crawl counters; a nil
// registry is a no-op.
func (s Stats) record(reg *metrics.Registry) {
	reg.Counter("crawl.sites").Add(int64(s.SitesVisited))
	reg.Counter("crawl.pages").Add(int64(s.PagesDiscovered))
	reg.Counter("crawl.visits").Add(int64(s.VisitsTotal))
	reg.Counter("crawl.visits.failed").Add(int64(s.VisitsFailed))
	reg.Counter("crawl.visits.degraded").Add(int64(s.VisitsDegraded))
	reg.Counter("crawl.visits.retried").Add(int64(s.VisitsRetried))
	reg.Counter("crawl.attempts").Add(int64(s.AttemptsTotal))
	reg.Counter("crawl.visits.reused").Add(int64(s.VisitsReused))
}

// emit hands one finished site on, in site-list order: its stats into the
// run totals, its visits into the sink (or else the dataset), and finally
// the progress callback. Runs on the single sequencer goroutine.
func (c *crawlRun) emit(r *siteResult, ds *dataset.Dataset, stats *Stats) error {
	if !r.skipped {
		stats.add(r.stats)
		if c.cfg.Sink == nil {
			for _, v := range r.visits {
				ds.Add(v)
			}
		} else if err := c.cfg.Sink.WriteSite(r.site, r.visits); err != nil {
			return fmt.Errorf("crawler: site sink: %w", err)
		}
	}
	if c.cfg.Progress != nil {
		c.cfg.Progress(r.index+1, len(c.cfg.Sites))
	}
	return nil
}

// crawlSite runs one site's whole profile barrier, recording spans, fault
// counts and retry counts into the run's tracer and registry as the visits
// happen. Visits land in canonical slots — kept pages in discovery order,
// profiles in configuration order within each page — so the emitted visit
// order is a pure function of the site, not of goroutine scheduling. After
// the barrier the site is tallied once, from its slots, into its Stats and
// the crawl counters.
func (c *crawlRun) crawlSite(si int) *siteResult {
	cfg := &c.cfg
	reg, tracer := cfg.Metrics, cfg.Tracer
	r := &siteResult{index: si}

	siteDone := reg.Histogram("crawl.site_ms").Time()
	site := cfg.Universe.GenerateSiteAt(cfg.Sites[si], cfg.Epoch)
	r.site = site.Domain
	pages := discoverPages(site, cfg.MaxPages)
	kept := pages
	if cfg.PageFilter != nil {
		kept = make([]*webgen.Page, 0, len(pages))
		for _, p := range pages {
			if cfg.PageFilter(site.Domain, p.URL) {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			// No page of this site belongs to the shard: skip the site
			// without counting it — not even a crawl.site_ms sample, which
			// would register a near-zero timing for work never done and
			// skew the site-latency histogram under sharding.
			r.skipped = true
			return r
		}
	}

	// Canonical visit slots: page-major, profile-minor. Each slot, and its
	// fromResume flag, is written exactly once, by the goroutine that
	// filled it.
	nProf := len(c.profiles)
	pageIdx := make(map[string]int, len(kept))
	for i, p := range kept {
		pageIdx[p.URL] = i
	}
	slots := make([]*measurement.Visit, len(kept)*nProf)
	fromResume := make([]bool, len(slots))

	// Checkpoint reuse: split each profile's work into pages already
	// covered by the resume dataset and pages still to visit.
	reuse := func(prof browser.Profile, page *webgen.Page) *measurement.Visit {
		if pv := c.resume[dataset.PageKey{Site: site.Domain, PageURL: page.URL}]; pv != nil {
			if v := pv.ByProfile[prof.Name]; v != nil && v.Clean() {
				return v
			}
		}
		return nil
	}

	// The commander starts every profile's client on the site at the
	// same moment and waits for all of them (site-level barrier).
	var wg sync.WaitGroup
	for pi, prof := range c.profiles {
		wg.Add(1)
		go func(pi int, prof browser.Profile) {
			defer wg.Done()
			b := &browser.Browser{Profile: prof, Transport: c.transport}
			replay := &browser.Browser{Profile: prof, Transport: c.replayTransport}
			fill := func(v *measurement.Visit, reused bool) {
				i := pageIdx[v.PageURL]*nProf + pi
				slots[i], fromResume[i] = v, reused
			}
			performed := func(v *measurement.Visit) { fill(v, false) }
			if cfg.Stateful {
				// One sequential session per site: the jar persists across
				// pages in discovery order. Off-shard pages are visited so
				// the jar advances exactly as in the unsharded crawl, but
				// recorded nowhere (nil tracer and registry are no-ops, and
				// the replay transport counts no faults).
				jar := browser.NewJar()
				for _, p := range pages {
					if cfg.PageFilter != nil && !cfg.PageFilter(site.Domain, p.URL) {
						visitPage(nil, nil, replay, site, p, cfg.Seed, jar)
						continue
					}
					if v := reuse(prof, p); v != nil {
						fill(v, true)
						continue
					}
					performed(visitPage(tracer, reg, b, site, p, cfg.Seed, jar))
				}
				return
			}
			var todo []*webgen.Page
			for _, p := range kept {
				if v := reuse(prof, p); v != nil {
					fill(v, true)
					continue
				}
				todo = append(todo, p)
			}
			visitAll(tracer, reg, b, site, todo, cfg.Seed, c.instances, performed)
		}(pi, prof)
	}
	wg.Wait()

	r.visits = slots
	r.stats = Stats{SitesVisited: 1, PagesDiscovered: len(kept), VisitsTotal: len(slots)}
	visitMS := reg.Histogram("crawl.visit_ms")
	for i, v := range slots {
		if fromResume[i] {
			r.stats.VisitsReused++
			continue
		}
		attempts := max(v.Attempts, 1)
		r.stats.AttemptsTotal += attempts
		if attempts > 1 {
			r.stats.VisitsRetried++
		}
		if v.EffectiveStatus() == measurement.VisitDegraded {
			r.stats.VisitsDegraded++
		}
		if !v.Success {
			r.stats.VisitsFailed++
			continue
		}
		visitMS.Observe(float64(v.DurationMS))
		c.profileVisitMS[i%nProf].Observe(float64(v.DurationMS))
	}
	r.stats.record(reg)
	siteDone()
	return r
}

// discoverPages delegates to the HTML-parsing discovery pass.
func discoverPages(site *webgen.Site, maxPages int) []*webgen.Page {
	return DiscoverPages(site, maxPages)
}

// visitAll runs one stateless client: a pool of browser instances
// draining the site's pages, delivering every visit to the sink. (The
// stateful sequential session lives in crawlSite, where shard-filtered
// crawls interleave recorded and discarded visits over one shared jar.)
func visitAll(tracer *trace.Tracer, reg *metrics.Registry, b *browser.Browser,
	site *webgen.Site, pages []*webgen.Page,
	seed int64, instances int,
	sink func(*measurement.Visit)) {

	type job struct{ page *webgen.Page }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for i := 0; i < instances; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sink(visitPage(tracer, reg, b, site, j.page, seed, nil))
			}
		}()
	}
	for _, p := range pages {
		jobs <- job{page: p}
	}
	close(jobs)
	wg.Wait()
}

// visitPage performs one page visit with failure injection, bounded
// retries, and start-offset bookkeeping. Baseline failures (unreachable
// site, session-level network error, browser crash) are persistent —
// retrying the same session cannot clear them — while injected transient
// faults are retried with exponential backoff, deterministic jitter, and
// a per-visit simulated-time budget. No wall clock is consulted, so the
// retry schedule is a pure function of (seed, profile, page).
//
// When tracing is on, the visit records a crawl.visit span on the page's
// trace with one crawl.fetch child per attempt and one crawl.backoff
// child per retry wait, all on the simulated-time axis: the visit starts
// at StartOffsetS and each attempt/backoff advances the cursor by its
// simulated milliseconds.
func visitPage(tracer *trace.Tracer, reg *metrics.Registry,
	b *browser.Browser, site *webgen.Site, page *webgen.Page,
	seed int64, jar *cookies.Jar) *measurement.Visit {

	nonce := visitNonce(seed, b.Profile.Name, page.URL)
	tr := tracer.Trace("page", site.Domain+"|"+page.URL)
	failedVisit := func(failure string) *measurement.Visit {
		v := &measurement.Visit{
			Site: site.Domain, PageURL: page.URL, Profile: b.Profile.Name,
			Failure: failure, Status: measurement.VisitFailed,
		}
		s := tr.Span(nil, "crawl.visit", b.Profile.Name, 0)
		s.SetAttr("profile", b.Profile.Name).SetAttr("status", measurement.VisitFailed).SetAttr("failure", failure)
		s.End(0)
		return v
	}
	if site.Unreachable {
		return failedVisit("site unreachable")
	}
	if webgen.RollProb(page.Seed, nonce, "crawler", "netfail") < networkFailureProb {
		return failedVisit("network error")
	}
	// Visits start near-simultaneously but drift page by page; the paper
	// reports a 46s mean deviation with heavy tail (Appendix C). Model the
	// offset as a mixture of small jitter and occasional timeout-induced
	// stragglers. Rolled before the attempt loop so the visit span can
	// start at the offset; the roll is a pure function of (page, nonce),
	// so its position does not change the value.
	var offsetS float64
	r := webgen.RollProb(page.Seed, nonce, "crawler", "offset")
	switch {
	case r < 0.85:
		offsetS = r * 40 // 0..34s
	default:
		offsetS = 30 + (r-0.85)*2400 // tail up to ~6 min
	}
	cursorUS := int64(offsetS * 1e6)
	vs := tr.Span(nil, "crawl.visit", b.Profile.Name, cursorUS)
	vs.SetAttr("profile", b.Profile.Name)

	var v *measurement.Visit
	spentMS := 0
	for attempt := 0; ; attempt++ {
		attemptJar := jar
		if attemptJar == nil {
			// Stateless mode: every attempt is a fresh session.
			attemptJar = browser.NewJar()
		}
		v = b.VisitAttempt(page, nonce, attempt, attemptJar)
		fs := vs.Trace().Span(vs, "crawl.fetch", fmt.Sprintf("%s#%d", b.Profile.Name, attempt), cursorUS)
		fs.SetAttr("profile", b.Profile.Name).SetAttrInt("attempt", attempt+1)
		fs.SetAttr("status", v.EffectiveStatus())
		if v.FaultKind != "" {
			fs.SetAttr("fault.kind", v.FaultKind)
		}
		if v.Failure != "" {
			fs.SetAttr("failure", v.Failure)
		}
		cursorUS += int64(v.DurationMS) * 1000
		fs.End(cursorUS)
		spentMS += v.DurationMS
		if v.Success || !v.Retryable || attempt+1 >= maxAttempts {
			break
		}
		wait := backoffMS(attempt, page.Seed, nonce)
		if spentMS+wait > budgetMS {
			vs.AddEvent("retry.budget_exhausted", cursorUS,
				trace.Attr{Key: "spent_ms", Value: fmt.Sprintf("%d", spentMS)},
				trace.Attr{Key: "next_wait_ms", Value: fmt.Sprintf("%d", wait)})
			break
		}
		// The retry is now committed: count it by the fault kind that
		// triggered it (injected faults are the only retryable failures).
		kind := v.FaultKind
		if kind == "" {
			kind = "unknown"
		}
		reg.Counter(metrics.Labeled("crawl.retries.total", "kind", kind)).Inc()
		bs := vs.Trace().Span(vs, "crawl.backoff", fmt.Sprintf("%s#%d", b.Profile.Name, attempt), cursorUS)
		bs.SetAttr("profile", b.Profile.Name).SetAttrInt("attempt", attempt+1).
			SetAttrInt("wait_ms", wait).SetAttr("fault.kind", kind)
		cursorUS += int64(wait) * 1000
		bs.End(cursorUS)
		spentMS += wait
	}
	v.StartOffsetS = offsetS
	vs.SetAttr("status", v.EffectiveStatus()).SetAttrInt("attempts", v.Attempts)
	if v.Failure != "" {
		vs.SetAttr("failure", v.Failure)
	}
	vs.End(cursorUS)
	return v
}

// visitNonce derives the per-visit entropy. Distinct profiles get distinct
// nonces even with identical configurations — they are distinct sessions
// hitting distinct server-side state, which is why Sim1 and Sim2 differ.
func visitNonce(seed int64, profile, pageURL string) uint64 {
	return webgen.NonceFor(uint64(seed), profile, pageURL)
}
