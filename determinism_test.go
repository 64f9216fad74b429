package webmeasure

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestAnalysisByteIdenticalAcrossWorkers is the determinism regression
// test for the sharded analysis pipeline: one crawled dataset, analyzed
// with Workers=1 and Workers=8, must export byte-identical tables,
// figures, JSON bundle, and CSV files. This is a golden comparison of the
// complete export surface, not a spot check — any nondeterminism the
// worker pool introduces (ordering, map iteration, racing accumulators)
// shows up as a diff here.
func TestAnalysisByteIdenticalAcrossWorkers(t *testing.T) {
	const seed, sites, pages = 11, 10, 4
	res, err := Run(context.Background(), Config{Seed: seed, Sites: sites, PagesPerSite: pages})
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := res.WriteDataset(&raw); err != nil {
		t.Fatal(err)
	}

	type export struct {
		report []byte
		json   []byte
		csv    map[string][]byte
	}
	analyzeWith := func(workers int) export {
		t.Helper()
		r, err := LoadAndAnalyzeContext(context.Background(), bytes.NewReader(raw.Bytes()), Config{
			Seed: seed, Sites: sites, PagesPerSite: pages, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var rep, js bytes.Buffer
		r.WriteReport(&rep)
		if err := r.WriteJSON(&js); err != nil {
			t.Fatalf("workers=%d: json: %v", workers, err)
		}
		dir := t.TempDir()
		if err := r.WriteCSVFiles(dir); err != nil {
			t.Fatalf("workers=%d: csv: %v", workers, err)
		}
		csv := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			csv[e.Name()] = b
		}
		if len(csv) == 0 {
			t.Fatalf("workers=%d: no CSV files exported", workers)
		}
		return export{report: rep.Bytes(), json: js.Bytes(), csv: csv}
	}

	one := analyzeWith(1)
	eight := analyzeWith(8)

	if !bytes.Equal(one.report, eight.report) {
		t.Errorf("report output differs between workers=1 and workers=8 (%d vs %d bytes)",
			len(one.report), len(eight.report))
	}
	if !bytes.Equal(one.json, eight.json) {
		t.Errorf("JSON bundle differs between workers=1 and workers=8 (%d vs %d bytes)",
			len(one.json), len(eight.json))
	}
	names := func(m map[string][]byte) []string {
		var out []string
		for n := range m {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	oneNames, eightNames := names(one.csv), names(eight.csv)
	if len(oneNames) != len(eightNames) {
		t.Fatalf("CSV file sets differ: %v vs %v", oneNames, eightNames)
	}
	for i, n := range oneNames {
		if eightNames[i] != n {
			t.Fatalf("CSV file sets differ: %v vs %v", oneNames, eightNames)
		}
		if !bytes.Equal(one.csv[n], eight.csv[n]) {
			t.Errorf("CSV %s differs between workers=1 and workers=8", n)
		}
	}

	// The end-to-end path (Run with Workers set) must agree with the
	// load-and-analyze path too.
	resW, err := Run(context.Background(), Config{
		Seed: seed, Sites: sites, PagesPerSite: pages, Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var repW bytes.Buffer
	resW.WriteReport(&repW)
	if !bytes.Equal(repW.Bytes(), one.report) {
		t.Error("Run(Workers=8) report differs from LoadAndAnalyzeContext(Workers=1)")
	}
}
