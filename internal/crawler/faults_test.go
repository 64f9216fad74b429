package crawler

import (
	"context"
	"testing"

	"webmeasure/internal/faults"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
)

func faultyCrawl(t *testing.T, nSites int, seed int64, p faults.Profile) Config {
	t.Helper()
	cfg := smallCrawl(t, nSites, seed)
	cfg.Faults = p
	return cfg
}

// TestFaultsIncreaseFailures: the heavy profile must fail and degrade
// strictly more visits than the clean baseline.
func TestFaultsIncreaseFailures(t *testing.T) {
	_, base, err := Run(context.Background(), smallCrawl(t, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	_, heavy, err := Run(context.Background(), faultyCrawl(t, 10, 5, faults.Heavy()))
	if err != nil {
		t.Fatal(err)
	}
	if heavy.VisitsFailed <= base.VisitsFailed {
		t.Errorf("heavy faults failed %d visits, baseline %d", heavy.VisitsFailed, base.VisitsFailed)
	}
	if heavy.VisitsDegraded == 0 {
		t.Error("heavy faults produced no degraded visits")
	}
	if heavy.VisitsRetried == 0 {
		t.Error("heavy faults triggered no retries")
	}
	if heavy.AttemptsTotal <= heavy.VisitsTotal {
		t.Errorf("attempts %d should exceed visits %d under heavy faults",
			heavy.AttemptsTotal, heavy.VisitsTotal)
	}
	if base.VisitsDegraded != 0 || base.VisitsRetried != 0 {
		t.Errorf("clean crawl reported degraded=%d retried=%d",
			base.VisitsDegraded, base.VisitsRetried)
	}
	if base.AttemptsTotal != base.VisitsTotal {
		t.Errorf("clean crawl attempts %d != visits %d", base.AttemptsTotal, base.VisitsTotal)
	}
}

// TestRetriesRecoverFlakyPages: with a flaky-only fault profile every
// failure is recoverable within the default 3 attempts, so the failure
// rate must equal the clean baseline while retried visits appear.
func TestRetriesRecoverFlakyPages(t *testing.T) {
	flaky := faults.Profile{Name: "flaky-only", FlakyProb: 0.5, FlakyFailures: 2}
	_, base, err := Run(context.Background(), smallCrawl(t, 8, 11))
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := Run(context.Background(), faultyCrawl(t, 8, 11, flaky))
	if err != nil {
		t.Fatal(err)
	}
	if got.VisitsFailed != base.VisitsFailed {
		t.Errorf("flaky-only failures = %d, want baseline %d (all flakes recover)",
			got.VisitsFailed, base.VisitsFailed)
	}
	if got.VisitsRetried == 0 {
		t.Error("flaky pages were never retried")
	}
}

// TestRetryBudgetStopsAttempts: with a one-attempt policy the flaky pages
// cannot recover and must surface as retryable failures.
func TestRetryBudgetStopsAttempts(t *testing.T) {
	flaky := faults.Profile{Name: "flaky-only", FlakyProb: 0.5, FlakyFailures: 2}
	cfg := faultyCrawl(t, 8, 11, flaky)
	cfg.Retry = RetryPolicy{MaxAttempts: 1}
	ds, got, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.VisitsRetried != 0 {
		t.Errorf("MaxAttempts=1 still retried %d visits", got.VisitsRetried)
	}
	retryable := 0
	for _, v := range ds.Visits() {
		if !v.Success && v.Retryable {
			retryable++
		}
	}
	if retryable == 0 {
		t.Error("no failure was marked retryable despite flaky faults and no retries")
	}
}

// TestFaultCrawlDeterministic: two crawls with the same seed and fault
// profile must produce identical visit records — attempt counts, status,
// and failure strings included — despite the parallel instance pool.
func TestFaultCrawlDeterministic(t *testing.T) {
	key := func(v *measurement.Visit) string { return v.Profile + "|" + v.PageURL }
	collect := func(instances int) map[string]*measurement.Visit {
		cfg := faultyCrawl(t, 6, 3, faults.Heavy())
		cfg.Instances = instances
		ds, _, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]*measurement.Visit{}
		for _, v := range ds.Visits() {
			out[key(v)] = v
		}
		return out
	}
	a, b := collect(1), collect(8)
	if len(a) != len(b) {
		t.Fatalf("visit counts differ: %d vs %d", len(a), len(b))
	}
	for k, va := range a {
		vb := b[k]
		if vb == nil {
			t.Fatalf("visit %s missing at instances=8", k)
		}
		if va.Success != vb.Success || va.Status != vb.Status ||
			va.Attempts != vb.Attempts || va.Failure != vb.Failure ||
			len(va.Requests) != len(vb.Requests) {
			t.Fatalf("visit %s diverged:\n 1: %+v\n 8: %+v", k, va, vb)
		}
	}
}

// TestFaultMetricsFlow: the new retry/failure counters reach the
// registry.
func TestFaultMetricsFlow(t *testing.T) {
	reg := metrics.New()
	cfg := faultyCrawl(t, 8, 7, faults.Heavy())
	cfg.Metrics = reg
	_, stats, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"crawl.attempts":        int64(stats.AttemptsTotal),
		"crawl.visits.retried":  int64(stats.VisitsRetried),
		"crawl.visits.degraded": int64(stats.VisitsDegraded),
		"crawl.visits.failed":   int64(stats.VisitsFailed),
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if reg.Counter("crawl.visits.retried").Value() == 0 {
		t.Error("no retries counted under heavy faults")
	}
}

// TestInvalidFaultProfileRejected: a profile whose probability mass
// exceeds 1 aborts the crawl up front.
func TestInvalidFaultProfileRejected(t *testing.T) {
	cfg := faultyCrawl(t, 2, 1, faults.Profile{ErrorProb: 0.9, TruncateProb: 0.9})
	if _, _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("invalid fault profile accepted")
	}
}

// TestRedirectLoopRecordsChain: redirect-loop failures keep their 302 hop
// chain in the visit record for diagnosability.
func TestRedirectLoopRecordsChain(t *testing.T) {
	loop := faults.Profile{Name: "loop-only", RedirectLoopProb: 0.5}
	ds, _, err := Run(context.Background(), faultyCrawl(t, 6, 13, loop))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range ds.Visits() {
		if v.Success || len(v.Requests) == 0 {
			continue
		}
		found = true
		for i, r := range v.Requests {
			if r.Status != 302 {
				t.Fatalf("loop hop %d has status %d", i, r.Status)
			}
		}
	}
	if !found {
		t.Error("no redirect-loop failure recorded its hop chain")
	}
}

// TestResumeSkipsOnlyCleanVisits: checkpoint reuse must not resurrect
// degraded visits — they are re-performed like failures — and a reused
// visit counts only as reused, in the stats and in the crawl counters.
func TestResumeSkipsOnlyCleanVisits(t *testing.T) {
	cfg := faultyCrawl(t, 6, 9, faults.Heavy())
	first, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for _, v := range first.Visits() {
		if v.EffectiveStatus() == measurement.VisitDegraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Skip("seed produced no degraded visits; adjust the seed")
	}
	cfg.Resume = first
	cfg.Metrics = metrics.New()
	second, stats2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Len() != first.Len() {
		t.Fatalf("resume changed dataset size: %d vs %d", second.Len(), first.Len())
	}
	// Clean visits are reused; failed and degraded ones are re-performed,
	// and being pure functions of (seed, profile, page) they repeat the
	// first run's attempts and outcomes.
	want := Stats{VisitsTotal: first.Len()}
	for _, v := range first.Visits() {
		if v.Clean() {
			want.VisitsReused++
			continue
		}
		want.AttemptsTotal += max(v.Attempts, 1)
		if v.Attempts > 1 {
			want.VisitsRetried++
		}
		if v.EffectiveStatus() == measurement.VisitDegraded {
			want.VisitsDegraded++
		}
		if !v.Success {
			want.VisitsFailed++
		}
	}
	want.SitesVisited, want.PagesDiscovered = stats2.SitesVisited, stats2.PagesDiscovered
	if stats2 != want {
		t.Errorf("resumed stats %+v, want %+v", stats2, want)
	}
	ctr := cfg.Metrics.Dump().Counters
	for name, v := range map[string]int{
		"crawl.visits": want.VisitsTotal, "crawl.visits.reused": want.VisitsReused,
		"crawl.attempts": want.AttemptsTotal, "crawl.visits.retried": want.VisitsRetried,
		"crawl.visits.degraded": want.VisitsDegraded, "crawl.visits.failed": want.VisitsFailed,
	} {
		if ctr[name] != int64(v) {
			t.Errorf("%s = %d, want %d", name, ctr[name], v)
		}
	}
}
