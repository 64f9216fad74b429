package webmeasure

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"webmeasure/internal/metrics"
)

// TestDeriveOnce renders every artifact of one Results and requires each
// derived analysis to have run exactly once: the report, JSON, CSV and
// Summary all format the same derivation.
func TestDeriveOnce(t *testing.T) {
	reg := metrics.New()
	res, err := Run(context.Background(), Config{Seed: 17, Sites: 10, PagesPerSite: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var first, js, csv, second bytes.Buffer
	res.WriteReport(&first)
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSVFiles(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	_ = res.Summary()
	res.WriteReport(&second)
	for _, name := range []string{
		"analysis.stability_ms",
		"analysis.casestudy.uniquenodes_ms",
		"analysis.casestudy.tracking_ms",
		"analysis.casestudy.cookies_ms",
	} {
		if n := reg.Histogram(name).Count(); n != 1 {
			t.Errorf("%s: %d samples, want 1", name, n)
		}
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("a second report differs from the first")
	}
}

// TestConcurrentRender renders one Results from several goroutines at
// once; every copy must match a serial render of an identical run.
func TestConcurrentRender(t *testing.T) {
	cfg := Config{Seed: 19, Sites: 10, PagesPerSite: 3}
	want, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, wantJS, wantCSV := renderAll(t, want)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, js, csv := renderAll(t, res)
			if !bytes.Equal(rep, wantRep) || !bytes.Equal(js, wantJS) || !bytes.Equal(csv, wantCSV) {
				t.Error("concurrent render differs from the serial one")
			}
			if res.Summary() != want.Summary() {
				t.Error("concurrent Summary differs from the serial one")
			}
		}()
	}
	wg.Wait()
}

func renderAll(t *testing.T, r *Results) (rep, js, csv []byte) {
	var rb, jb, cb bytes.Buffer
	r.WriteReport(&rb)
	if err := r.WriteJSON(&jb); err != nil {
		t.Error(err)
	}
	if err := r.WriteCSV(&cb); err != nil {
		t.Error(err)
	}
	return rb.Bytes(), jb.Bytes(), cb.Bytes()
}

// TestConcurrentColumnarLoads loads one columnar file from several
// goroutines at once, each through its own scratch from the shared pool,
// and writes one loaded Results' datasets from several goroutines at once,
// which decode its held bytes once: every render and every write-back
// must equal the crawl's.
func TestConcurrentColumnarLoads(t *testing.T) {
	cfg := Config{Seed: 21, Sites: 10, PagesPerSite: 3, FaultProfile: "heavy", Workers: 2}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, wantJS, wantCSV := renderAll(t, res)
	var col, jsonl bytes.Buffer
	if err := res.WriteDatasetCol(&col); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteDataset(&jsonl); err != nil {
		t.Fatal(err)
	}
	shared, err := LoadAndAnalyzeContext(context.Background(), bytes.NewReader(col.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := LoadAndAnalyzeContext(context.Background(), bytes.NewReader(col.Bytes()), cfg)
			if err != nil {
				t.Error(err)
				return
			}
			rep, js, csv := renderAll(t, r)
			if !bytes.Equal(rep, wantRep) || !bytes.Equal(js, wantJS) || !bytes.Equal(csv, wantCSV) {
				t.Error("a concurrent load renders other bytes than the crawl")
			}
			var gotCol, gotJSONL bytes.Buffer
			if err := shared.WriteDatasetCol(&gotCol); err != nil {
				t.Error(err)
			}
			if err := shared.WriteDataset(&gotJSONL); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(gotCol.Bytes(), col.Bytes()) || !bytes.Equal(gotJSONL.Bytes(), jsonl.Bytes()) {
				t.Error("a concurrent write-back of a loaded dataset differs from the crawl's")
			}
		}()
	}
	wg.Wait()
}
