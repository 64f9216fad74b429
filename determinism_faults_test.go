package webmeasure

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"webmeasure/internal/metrics"
)

// TestFaultSweepDeterministic extends the determinism golden test across
// the fault-injection profiles: for each of off/light/heavy, one crawl's
// dataset analyzed with Workers=1 and Workers=8 must export byte-identical
// report, JSON bundle, and CSV stream; under active faults the vetting
// stage must actually exclude pages; and a full re-crawl (Run) with a
// different worker count must reproduce the same bytes — the injected
// faults, retries, and backoff are all simulated-time and seed-derived,
// so no schedule may leak into the output.
func TestFaultSweepDeterministic(t *testing.T) {
	const seed, sites, pages = 5, 8, 3
	for _, profile := range []string{"off", "light", "heavy"} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			t.Parallel()
			reg := metrics.New()
			cfg := Config{Seed: seed, Sites: sites, PagesPerSite: pages, FaultProfile: profile, Metrics: reg}
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var raw bytes.Buffer
			if err := res.WriteDataset(&raw); err != nil {
				t.Fatal(err)
			}
			sum := res.Summary()

			// Per-kind observability counters: the injector counts every
			// disturbed attempt by kind, the crawler counts committed
			// retries by the fault that triggered them.
			var injected, retried int64
			for _, c := range reg.Snapshot().Counters {
				switch {
				case strings.HasPrefix(c.Name, "faults.injected.total|kind="):
					injected += c.Value
				case strings.HasPrefix(c.Name, "crawl.retries.total|kind="):
					retried += c.Value
				}
			}
			if profile == "off" {
				if sum.ExcludedDegraded != 0 {
					t.Errorf("faults off but %d pages degraded", sum.ExcludedDegraded)
				}
				if injected != 0 || retried != 0 {
					t.Errorf("faults off but counters report %d injected, %d retried", injected, retried)
				}
			} else {
				if sum.ExcludedPages == 0 {
					t.Errorf("%s faults produced no vetting exclusions: %+v", profile, sum)
				}
				if injected == 0 {
					t.Errorf("%s faults but faults.injected.total{kind} counters are zero", profile)
				}
				if retried == 0 {
					t.Errorf("%s faults but crawl.retries.total{kind} counters are zero", profile)
				}
			}

			type export struct{ report, json, csv []byte }
			analyzeWith := func(workers int) export {
				t.Helper()
				acfg := cfg
				acfg.Workers = workers
				r, err := LoadAndAnalyzeContext(context.Background(), bytes.NewReader(raw.Bytes()), acfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				var rep, js, csv bytes.Buffer
				r.WriteReport(&rep)
				if err := r.WriteJSON(&js); err != nil {
					t.Fatalf("workers=%d: json: %v", workers, err)
				}
				if err := r.WriteCSV(&csv); err != nil {
					t.Fatalf("workers=%d: csv: %v", workers, err)
				}
				return export{report: rep.Bytes(), json: js.Bytes(), csv: csv.Bytes()}
			}
			one, eight := analyzeWith(1), analyzeWith(8)
			if !bytes.Equal(one.report, eight.report) {
				t.Error("report differs between workers=1 and workers=8")
			}
			if !bytes.Equal(one.json, eight.json) {
				t.Error("JSON bundle differs between workers=1 and workers=8")
			}
			if !bytes.Equal(one.csv, eight.csv) {
				t.Error("CSV stream differs between workers=1 and workers=8")
			}

			// Re-crawl with a parallel analysis: the whole pipeline, faults
			// included, must reproduce the exact bytes.
			cfg2 := cfg
			cfg2.Workers = 8
			res2, err := Run(context.Background(), cfg2)
			if err != nil {
				t.Fatal(err)
			}
			var rep2 bytes.Buffer
			res2.WriteReport(&rep2)
			if !bytes.Equal(rep2.Bytes(), one.report) {
				t.Error("re-crawled report differs from first crawl's analysis")
			}
		})
	}
}

// TestUnknownFaultProfileRejected: Run must refuse a profile name the
// faults package does not know.
func TestUnknownFaultProfileRejected(t *testing.T) {
	_, err := Run(context.Background(), Config{Seed: 1, Sites: 2, FaultProfile: "chaos"})
	if err == nil {
		t.Fatal("unknown fault profile accepted")
	}
}
