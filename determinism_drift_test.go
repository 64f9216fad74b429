package webmeasure

// The longitudinal determinism goldens: a multi-epoch drift sequence
// (baselines, deltas, drift.csv, the report drift section, the alert
// sequence) must be byte-identical whatever the worker counts and
// whether the epochs were crawled buffered or streamed.

import (
	"bytes"
	"context"
	"testing"

	"webmeasure/internal/dataset"
	"webmeasure/internal/drift"
	"webmeasure/internal/report"
)

// driftCfg is the small 3-epoch experiment the goldens rerun.
func driftCfg(epoch, workers, siteWorkers int) Config {
	return Config{
		Seed: 7, Sites: 6, PagesPerSite: 3, Epoch: epoch,
		Workers: workers, SiteWorkers: siteWorkers,
	}
}

// driftEpochs = how many epochs each variant runs.
const driftEpochs = 3

// driftArtifacts renders one epoch sequence end to end: per-epoch
// baseline bytes, sequential delta JSON, drift.csv, the report drift
// sections, and the alert sequence under the default rules.
type driftArtifacts struct {
	baselines [][]byte
	deltas    [][]byte
	csv       []byte
	sections  []byte
	alerts    []drift.Alert
}

// renderDrift folds a baseline sequence into the full artifact set.
func renderDrift(t *testing.T, baselines []*drift.Baseline) driftArtifacts {
	t.Helper()
	var out driftArtifacts
	eng, err := drift.NewEngine(drift.DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	var rows []drift.CSVRow
	var sections bytes.Buffer
	for i, b := range baselines {
		enc, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out.baselines = append(out.baselines, enc)
		if i == 0 {
			continue
		}
		d, err := drift.Diff(baselines[i-1], b)
		if err != nil {
			t.Fatal(err)
		}
		alerts := eng.Evaluate(d)
		out.alerts = append(out.alerts, alerts...)
		rows = append(rows, drift.CSVRow{Delta: d, Alerts: len(alerts)})
		denc, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out.deltas = append(out.deltas, denc)
		report.WriteDriftSection(&sections, d, alerts)
	}
	var csv bytes.Buffer
	if err := drift.WriteCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	out.csv = csv.Bytes()
	out.sections = sections.Bytes()
	return out
}

// runEpochsBuffered runs the epoch sequence through the ordinary
// buffered pipeline.
func runEpochsBuffered(t *testing.T, workers, siteWorkers int) []*drift.Baseline {
	t.Helper()
	var baselines []*drift.Baseline
	for e := 0; e < driftEpochs; e++ {
		res, err := Run(context.Background(), driftCfg(e, workers, siteWorkers))
		if err != nil {
			t.Fatal(err)
		}
		baselines = append(baselines, res.DriftBaseline())
	}
	return baselines
}

// runEpochsStreamed runs each epoch as cmd/crawl + cmd/analyze would:
// stream the crawl site by site into a columnar dataset, then load and
// analyze the bytes.
func runEpochsStreamed(t *testing.T, siteWorkers int) []*drift.Baseline {
	t.Helper()
	var baselines []*drift.Baseline
	for e := 0; e < driftEpochs; e++ {
		cfg := driftCfg(e, 0, siteWorkers)
		var buf bytes.Buffer
		sink := dataset.NewColSiteWriter(&buf)
		if _, err := CrawlStream(context.Background(), cfg, sink); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		res, err := LoadAndAnalyzeContext(context.Background(), bytes.NewReader(buf.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		baselines = append(baselines, res.DriftBaseline())
	}
	return baselines
}

// compareDrift asserts two artifact sets agree byte for byte.
func compareDrift(t *testing.T, name string, want, got driftArtifacts) {
	t.Helper()
	for i := range want.baselines {
		if !bytes.Equal(want.baselines[i], got.baselines[i]) {
			t.Errorf("%s: baseline epoch %d differs", name, i)
		}
	}
	for i := range want.deltas {
		if !bytes.Equal(want.deltas[i], got.deltas[i]) {
			t.Errorf("%s: delta %d differs", name, i)
		}
	}
	if !bytes.Equal(want.csv, got.csv) {
		t.Errorf("%s: drift.csv differs:\n%s\nvs\n%s", name, want.csv, got.csv)
	}
	if !bytes.Equal(want.sections, got.sections) {
		t.Errorf("%s: report drift sections differ", name)
	}
	if len(want.alerts) != len(got.alerts) {
		t.Fatalf("%s: alert count %d vs %d", name, len(want.alerts), len(got.alerts))
	}
	for i := range want.alerts {
		if want.alerts[i] != got.alerts[i] {
			t.Errorf("%s: alert %d differs: %+v vs %+v", name, i, want.alerts[i], got.alerts[i])
		}
	}
}

// TestDriftSequenceByteIdentical is the PR's golden: the 3-epoch drift
// artifact set is invariant under analysis workers 1 vs 8, site workers
// 1 vs 8, and buffered vs streamed crawling.
func TestDriftSequenceByteIdentical(t *testing.T) {
	want := renderDrift(t, runEpochsBuffered(t, 1, 1))
	if len(want.baselines) != driftEpochs || len(want.deltas) != driftEpochs-1 {
		t.Fatalf("reference run produced %d baselines, %d deltas",
			len(want.baselines), len(want.deltas))
	}

	t.Run("workers8", func(t *testing.T) {
		compareDrift(t, "workers 8x8", want, renderDrift(t, runEpochsBuffered(t, 8, 8)))
	})
	t.Run("streamed", func(t *testing.T) {
		compareDrift(t, "streamed sw=8", want, renderDrift(t, runEpochsStreamed(t, 8)))
	})
}

// TestDriftEpochsActuallyDrift guards the goldens against vacuity: the
// churned universe must produce real epoch-over-epoch change, so the
// deltas the determinism test compares are non-trivial.
func TestDriftEpochsActuallyDrift(t *testing.T) {
	baselines := runEpochsBuffered(t, 0, 0)
	for i := 1; i < len(baselines); i++ {
		d, err := drift.Diff(baselines[i-1], baselines[i])
		if err != nil {
			t.Fatal(err)
		}
		if d.ThirdPartyJaccard >= 1 && d.TreeSimilarity >= 1 && d.TrackingShareDrift == 0 {
			t.Errorf("epoch %d -> %d shows no drift at all", i-1, i)
		}
		if d.CommonPages == 0 {
			t.Errorf("epoch %d -> %d shares no pages; the page turnover is too aggressive for the goldens", i-1, i)
		}
	}
}

// TestEpochCrawlBytesSiteWorkerInvariant pins satellite 3 directly at
// the dataset layer: an epoch-2 crawl under the site-parallel pool
// emits byte-identical JSONL at 1 and 8 site workers.
func TestEpochCrawlBytesSiteWorkerInvariant(t *testing.T) {
	crawl := func(siteWorkers int) []byte {
		cfg := Config{Seed: 7, Sites: 6, PagesPerSite: 3, Epoch: 2, SiteWorkers: siteWorkers}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteDataset(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(crawl(1), crawl(8)) {
		t.Error("epoch-2 crawl bytes differ between 1 and 8 site workers")
	}
}
