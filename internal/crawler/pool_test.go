package crawler

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"webmeasure/internal/dataset"
	"webmeasure/internal/faults"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
	"webmeasure/internal/trace"
)

// workersRun is what one crawl of runWorkers recorded.
type workersRun struct {
	dataset []byte
	trace   []byte
	dump    metrics.Dump
	stats   Stats
}

// runWorkers crawls cfg with the given site-worker count, every site
// worker recording into one registry and one tracer, and returns the
// dataset's and the trace's JSONL bytes, the metrics dump and the stats.
func runWorkers(t *testing.T, cfg Config, workers int) workersRun {
	t.Helper()
	cfg.SiteWorkers = workers
	cfg.Metrics = metrics.New()
	cfg.Tracer = trace.New(trace.Options{Seed: cfg.Seed, Metrics: cfg.Metrics})
	ds, stats, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var data, spans bytes.Buffer
	if err := ds.WriteJSONL(&data); err != nil {
		t.Fatalf("workers=%d: write: %v", workers, err)
	}
	if err := cfg.Tracer.WriteJSONL(&spans); err != nil {
		t.Fatalf("workers=%d: trace: %v", workers, err)
	}
	return workersRun{data.Bytes(), spans.Bytes(), cfg.Metrics.Dump(), stats}
}

// histogramCounts maps each histogram of a dump to its sample count;
// crawl.site_ms samples are wall-clock times, so only counts compare.
func histogramCounts(d metrics.Dump) map[string]int64 {
	out := make(map[string]int64, len(d.Histograms))
	for name, h := range d.Histograms {
		out[name] = h.Count
	}
	return out
}

// TestSiteWorkersByteIdentical is the package-level half of the parallel
// determinism contract: 1 worker and 8 workers must produce the same
// dataset and trace bytes, the same counter values and histogram sample
// counts, and the same stats — clean, under heavy fault injection, and
// stateful.
func TestSiteWorkersByteIdentical(t *testing.T) {
	heavy, err := faults.ByName("heavy")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		mutil func(*Config)
	}{
		{"clean", func(*Config) {}},
		{"heavy-faults", func(c *Config) { c.Faults = heavy }},
		{"stateful", func(c *Config) { c.Stateful = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCrawl(t, 10, 11)
			tc.mutil(&cfg)
			one, eight := runWorkers(t, cfg, 1), runWorkers(t, cfg, 8)
			if !bytes.Equal(one.dataset, eight.dataset) {
				t.Errorf("dataset bytes differ between 1 and 8 site workers")
			}
			if len(one.trace) == 0 || !bytes.Equal(one.trace, eight.trace) {
				t.Errorf("trace bytes differ between 1 and 8 site workers (%d vs %d bytes)", len(one.trace), len(eight.trace))
			}
			if !reflect.DeepEqual(one.dump.Counters, eight.dump.Counters) {
				t.Errorf("counters differ:\n 1 worker: %v\n 8 workers: %v", one.dump.Counters, eight.dump.Counters)
			}
			if h1, h8 := histogramCounts(one.dump), histogramCounts(eight.dump); !reflect.DeepEqual(h1, h8) {
				t.Errorf("histogram counts differ:\n 1 worker: %v\n 8 workers: %v", h1, h8)
			}
			if one.stats != eight.stats {
				t.Errorf("stats differ:\n 1 worker: %+v\n 8 workers: %+v", one.stats, eight.stats)
			}
		})
	}
}

// orderSink records the site order and visit stream a crawl emits, and
// writes the visits through a streaming JSONL site writer.
type orderSink struct {
	sites  []string
	visits []*measurement.Visit
	jsonl  bytes.Buffer
	w      *dataset.JSONLSiteWriter
}

func (s *orderSink) WriteSite(site string, visits []*measurement.Visit) error {
	s.sites = append(s.sites, site)
	s.visits = append(s.visits, visits...)
	if s.w == nil {
		s.w = dataset.NewJSONLSiteWriter(&s.jsonl)
	}
	return s.w.WriteSite(site, visits)
}

// streamed closes the JSONL stream and returns the bytes written.
func (s *orderSink) streamed(t *testing.T) []byte {
	t.Helper()
	if s.w != nil {
		if err := s.w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return s.jsonl.Bytes()
}

// jsonlOf renders a sink-free run's dataset as JSON Lines.
func jsonlOf(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSinkReceivesSiteListOrder pins the streaming contract: the sink
// sees every site exactly once, in site-list order, and the sink's visits,
// streamed through a JSONL site writer, equal byte for byte the dataset a
// run of the same config without a sink returns.
func TestSinkReceivesSiteListOrder(t *testing.T) {
	cfg := smallCrawl(t, 9, 5)
	cfg.SiteWorkers = 4
	want, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &orderSink{}
	cfg.Sink = sink
	if _, _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	wantSites := make([]string, len(cfg.Sites))
	for i, e := range cfg.Sites {
		wantSites[i] = cfg.Universe.GenerateSiteAt(e, cfg.Epoch).Domain
	}
	if !reflect.DeepEqual(sink.sites, wantSites) {
		t.Errorf("sink site order %v, want site-list order %v", sink.sites, wantSites)
	}
	if !bytes.Equal(sink.streamed(t), jsonlOf(t, want)) {
		t.Errorf("streamed JSONL of the sink's %d visits differs from the sink-free run's dataset (%d visits)",
			len(sink.visits), want.Len())
	}
}

// TestDiscardDataset checks the streaming-only mode: with a sink attached
// Run retains no dataset, while the sink still receives every visit a
// sink-free run of the same config collects.
func TestDiscardDataset(t *testing.T) {
	cfg := smallCrawl(t, 5, 3)
	want, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &orderSink{}
	cfg.Sink = sink
	ds, stats, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds != nil {
		t.Errorf("Run with a sink kept a dataset of %d visits in memory", ds.Len())
	}
	if len(sink.visits) != stats.VisitsTotal || len(sink.visits) != want.Len() {
		t.Errorf("sink saw %d visits, stats count %d, sink-free run collected %d",
			len(sink.visits), stats.VisitsTotal, want.Len())
	}
}

// TestSinkErrorAbortsRun checks a failing sink stops the crawl with its
// error instead of crawling every remaining site to completion.
func TestSinkErrorAbortsRun(t *testing.T) {
	cfg := smallCrawl(t, 8, 3)
	cfg.SiteWorkers = 2
	boom := fmt.Errorf("disk full")
	fail := failSink{after: 2, err: boom}
	cfg.Sink = &fail
	_, _, err := Run(context.Background(), cfg)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("disk full")) {
		t.Fatalf("run returned %v, want the sink error", err)
	}
}

type failSink struct {
	after int
	n     int
	err   error
}

func (s *failSink) WriteSite(string, []*measurement.Visit) error {
	s.n++
	if s.n > s.after {
		return s.err
	}
	return nil
}

// TestMidRunCancellation cancels the context from the progress callback
// and expects ctx.Err back with a contiguous site-list prefix emitted —
// the pool's drain path (also exercised under -race by make race-crawl).
func TestMidRunCancellation(t *testing.T) {
	cfg := smallCrawl(t, 12, 9)
	cfg.SiteWorkers = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &orderSink{}
	cfg.Sink = sink
	cfg.Progress = func(done, total int) {
		if done == 3 {
			cancel()
		}
	}
	_, _, err := Run(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("run returned %v, want context.Canceled", err)
	}
	if len(sink.sites) < 3 {
		t.Fatalf("only %d sites emitted before cancel, progress fired at 3", len(sink.sites))
	}
	want := make([]string, len(sink.sites))
	for i := range sink.sites {
		want[i] = cfg.Universe.GenerateSiteAt(cfg.Sites[i], cfg.Epoch).Domain
	}
	if !reflect.DeepEqual(sink.sites, want) {
		t.Errorf("emitted sites %v are not a site-list prefix %v", sink.sites, want)
	}
}

// TestSkippedSiteRecordsNoSiteTiming is the skip-path fix: a site whose
// pages are all filtered out must contribute nothing to crawl.site_ms —
// previously it recorded a near-zero sample that skewed the site-latency
// histogram under sharding.
func TestSkippedSiteRecordsNoSiteTiming(t *testing.T) {
	cfg := smallCrawl(t, 6, 13)
	cfg.Metrics = metrics.New()
	skip := cfg.Universe.GenerateSiteAt(cfg.Sites[2], cfg.Epoch).Domain
	cfg.PageFilter = func(site, pageURL string) bool { return site != skip }
	_, stats, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SitesVisited != 5 {
		t.Fatalf("visited %d sites, want 5 (one fully skipped)", stats.SitesVisited)
	}
	d := cfg.Metrics.Dump()
	h, ok := d.Histograms["crawl.site_ms"]
	if !ok {
		t.Fatal("crawl.site_ms histogram missing")
	}
	if h.Count != 5 {
		t.Errorf("crawl.site_ms has %d samples, want 5 — skipped sites must not record a timing", h.Count)
	}
	if got := d.Counters["crawl.sites"]; got != 5 {
		t.Errorf("crawl.sites = %d, want 5", got)
	}
}
