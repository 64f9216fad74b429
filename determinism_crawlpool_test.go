package webmeasure

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"

	"webmeasure/internal/dataset"
	"webmeasure/internal/metrics"
	"webmeasure/internal/trace"
)

// poolRun executes one full Run with the given site-worker count on its
// own registry and tracer, returning the rendered artifacts, both
// dataset encodings, the counter map, and the trace exports.
func poolRun(t *testing.T, cfg Config, siteWorkers int) (artifacts, []byte, []byte, map[string]int64, []byte, []byte) {
	t.Helper()
	reg := metrics.New()
	tr := trace.New(trace.Options{Seed: cfg.Seed, SampleEvery: 1, Metrics: reg})
	cfg.SiteWorkers = siteWorkers
	cfg.Metrics = reg
	cfg.Tracer = tr
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("site-workers=%d: %v", siteWorkers, err)
	}
	var jsonl, col bytes.Buffer
	if err := res.WriteDataset(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteDatasetCol(&col); err != nil {
		t.Fatal(err)
	}
	counters := reg.Dump().Counters
	jl, ch := traceBytes(t, tr)
	return renderArtifacts(t, res), jsonl.Bytes(), col.Bytes(), counters, jl, ch
}

// TestCrawlPoolByteIdentical is the golden 1-vs-8 determinism suite for
// the site-parallel crawl: one site worker and eight must produce
// byte-identical datasets (both formats), report/JSON/CSV artifacts,
// exact counter values, and byte-identical trace exports — on a clean
// network, under heavy fault injection, and with stateful cookie
// sessions.
func TestCrawlPoolByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		faults   string
		stateful bool
	}{
		{name: "clean"},
		{name: "heavy-faults", faults: "heavy"},
		{name: "stateful", stateful: true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Seed: 17, Sites: 10, PagesPerSite: 4,
				FaultProfile: tc.faults, Stateful: tc.stateful}
			art1, jsonl1, col1, ctr1, jl1, ch1 := poolRun(t, cfg, 1)
			art8, jsonl8, col8, ctr8, jl8, ch8 := poolRun(t, cfg, 8)

			if !bytes.Equal(jsonl1, jsonl8) {
				t.Errorf("JSONL dataset differs between 1 and 8 site workers (%d vs %d bytes)",
					len(jsonl1), len(jsonl8))
			}
			if !bytes.Equal(col1, col8) {
				t.Errorf("columnar dataset differs between 1 and 8 site workers (%d vs %d bytes)",
					len(col1), len(col8))
			}
			if !bytes.Equal(art1.report, art8.report) {
				t.Error("report differs between 1 and 8 site workers")
			}
			if !bytes.Equal(art1.json, art8.json) {
				t.Error("JSON export differs between 1 and 8 site workers")
			}
			if !bytes.Equal(art1.csv, art8.csv) {
				t.Error("CSV export differs between 1 and 8 site workers")
			}
			if !reflect.DeepEqual(ctr1, ctr8) {
				t.Errorf("counters differ between 1 and 8 site workers:\n 1: %v\n 8: %v", ctr1, ctr8)
			}
			if !bytes.Equal(jl1, jl8) {
				t.Errorf("trace JSONL differs between 1 and 8 site workers (%d vs %d bytes)",
					len(jl1), len(jl8))
			}
			if !bytes.Equal(ch1, ch8) {
				t.Errorf("Chrome trace differs between 1 and 8 site workers (%d vs %d bytes)",
					len(ch1), len(ch8))
			}
		})
	}
}

// TestCrawlStreamMatchesRun proves the streaming crawl writes the same
// bytes the buffered path writes, in both formats, and that the streamed
// columnar file — whose blocks land in crawl order, not site order —
// loads from a seekable reader, from a plain one, and as its JSONL
// conversion to the crawl's artifacts and to the crawl's dataset bytes.
func TestCrawlStreamMatchesRun(t *testing.T) {
	cfg := Config{Seed: 13, Sites: 8, PagesPerSite: 3, FaultProfile: "light"}

	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSONL, wantCol bytes.Buffer
	if err := res.WriteDataset(&wantJSONL); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteDatasetCol(&wantCol); err != nil {
		t.Fatal(err)
	}

	var gotJSONL bytes.Buffer
	jw := dataset.NewJSONLSiteWriter(&gotJSONL)
	if _, err := CrawlStream(context.Background(), cfg, jw); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSONL.Bytes(), gotJSONL.Bytes()) {
		t.Error("streamed JSONL differs from buffered WriteDataset")
	}

	var gotCol bytes.Buffer
	cw := dataset.NewColSiteWriter(&gotCol)
	stats, err := CrawlStream(context.Background(), cfg, cw)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if stats != res.CrawlStats() {
		t.Errorf("streamed stats %+v differ from buffered %+v", stats, res.CrawlStats())
	}
	// WriteCol emits blocks in first-insertion (crawl) order, exactly the
	// order the streaming writer sees sites, so the buffered and streamed
	// columnar files agree byte for byte.
	if !bytes.Equal(wantCol.Bytes(), gotCol.Bytes()) {
		t.Error("streamed columnar file differs from buffered WriteDatasetCol")
	}
	streamedDS, err := dataset.ReadCol(bytes.NewReader(gotCol.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var streamedJSONL bytes.Buffer
	if err := streamedDS.WriteJSONL(&streamedJSONL); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSONL.Bytes(), streamedJSONL.Bytes()) {
		t.Error("streamed columnar file does not decode to the buffered visit order")
	}

	want := renderArtifacts(t, res)
	for _, tc := range []struct {
		name string
		in   io.Reader
	}{
		{"seekable col", bytes.NewReader(gotCol.Bytes())},
		{"plain col", io.MultiReader(bytes.NewReader(gotCol.Bytes()))},
		{"jsonl", bytes.NewReader(streamedJSONL.Bytes())},
	} {
		got, err := LoadAndAnalyzeContext(context.Background(), tc.in, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		art := renderArtifacts(t, got)
		if !bytes.Equal(want.report, art.report) {
			t.Errorf("%s load of the streamed file: report differs from the crawl's", tc.name)
		}
		if !bytes.Equal(want.json, art.json) {
			t.Errorf("%s load of the streamed file: JSON differs from the crawl's", tc.name)
		}
		var jsonl, col bytes.Buffer
		if err := got.WriteDataset(&jsonl); err != nil {
			t.Fatal(err)
		}
		if err := got.WriteDatasetCol(&col); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSONL.Bytes(), jsonl.Bytes()) {
			t.Errorf("%s load of the streamed file: WriteDataset differs from the crawl's", tc.name)
		}
		if !bytes.Equal(wantCol.Bytes(), col.Bytes()) {
			t.Errorf("%s load of the streamed file: WriteDatasetCol differs from the crawl's", tc.name)
		}
	}
}

// TestInstanceCountByteIdentical pins what leaving the browser-instance
// count out of the job server's cache key rests on: 1, 3 and 15 instances
// per profile give byte-identical artifacts, datasets (both formats),
// counters and trace exports, stateless and stateful, on a clean network
// and under heavy fault injection.
func TestInstanceCountByteIdentical(t *testing.T) {
	names := []string{"report", "JSON export", "CSV export", "JSONL dataset", "columnar dataset", "trace JSONL", "Chrome trace"}
	for _, tc := range []struct {
		name     string
		faults   string
		stateful bool
	}{
		{name: "clean"},
		{name: "heavy-faults", faults: "heavy"},
		{name: "stateful", stateful: true},
		{name: "stateful-heavy-faults", faults: "heavy", stateful: true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Seed: 5, Sites: 8, PagesPerSite: 3, FaultProfile: tc.faults, Stateful: tc.stateful}
			var want [][]byte
			var wantCtr map[string]int64
			for _, n := range []int{1, 3, 15} {
				cfg.Instances = n
				art, jsonl, col, ctr, jl, ch := poolRun(t, cfg, 2)
				got := [][]byte{art.report, art.json, art.csv, jsonl, col, jl, ch}
				if want == nil {
					want, wantCtr = got, ctr
					continue
				}
				for i, name := range names {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("%s differs between 1 and %d instances (%d vs %d bytes)", name, n, len(want[i]), len(got[i]))
					}
				}
				if !reflect.DeepEqual(ctr, wantCtr) {
					t.Errorf("counters differ between 1 and %d instances:\n%v\n%v", n, wantCtr, ctr)
				}
			}
		})
	}
}
