package webmeasure

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkLoadAndAnalyzeCol is one re-analysis of a stored columnar
// dataset, the op cmd/analyze runs: open a 10-site × 4-page crawl's file,
// load and analyze it on one worker, and render the report, JSON bundle
// and CSV tables, which must equal the crawl's own. Its allocations per op
// are the load path's memory cost on every commit:
//
//	go test -run '^$' -bench LoadAndAnalyzeCol -benchmem .
func BenchmarkLoadAndAnalyzeCol(b *testing.B) {
	cfg := Config{Seed: benchSeed, Sites: 10, PagesPerSite: 4, Workers: 1, SiteWorkers: 1}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	var col bytes.Buffer
	if err := res.WriteDatasetCol(&col); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "input.col")
	if err := os.WriteFile(path, col.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	var want, got renderBufs
	if err := want.render(res); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(col.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		loaded, err := LoadAndAnalyzeContext(context.Background(), f, cfg)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		if err := got.render(loaded); err != nil {
			b.Fatal(err)
		}
		if !got.equal(&want) {
			b.Fatal("the reload renders other bytes than the crawl")
		}
	}
}

// renderBufs holds one Results' report, JSON bundle and CSV tables,
// reused from op to op.
type renderBufs struct{ report, json, csv bytes.Buffer }

func (r *renderBufs) render(res *Results) error {
	r.report.Reset()
	r.json.Reset()
	r.csv.Reset()
	res.WriteReport(&r.report)
	if err := res.WriteJSON(&r.json); err != nil {
		return err
	}
	return res.WriteCSV(&r.csv)
}

func (r *renderBufs) equal(o *renderBufs) bool {
	return bytes.Equal(r.report.Bytes(), o.report.Bytes()) &&
		bytes.Equal(r.json.Bytes(), o.json.Bytes()) &&
		bytes.Equal(r.csv.Bytes(), o.csv.Bytes())
}
