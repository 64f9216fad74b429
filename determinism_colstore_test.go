package webmeasure

import (
	"bytes"
	"context"
	"io"
	"testing"

	"webmeasure/internal/dataset"
	"webmeasure/internal/trace"
)

// crawlBytes runs one small crawl and returns the dataset in both
// formats.
func crawlBytes(t *testing.T, cfg Config) (jsonl, col []byte) {
	t.Helper()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var jl, cl bytes.Buffer
	if err := res.WriteDataset(&jl); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteDatasetCol(&cl); err != nil {
		t.Fatal(err)
	}
	return jl.Bytes(), cl.Bytes()
}

// TestDatasetColRoundTripByteIdentical is the losslessness golden: a
// JSONL dataset converted to the columnar format and back must reproduce
// the original file byte for byte, on a clean crawl and under heavy
// fault injection (failure/fault/retry fields populated).
func TestDatasetColRoundTripByteIdentical(t *testing.T) {
	for _, faults := range []string{"", "heavy"} {
		name := faults
		if name == "" {
			name = "clean"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			jsonl, col := crawlBytes(t, Config{Seed: 11, Sites: 8, PagesPerSite: 3, FaultProfile: faults})

			ds, err := dataset.ReadCol(bytes.NewReader(col))
			if err != nil {
				t.Fatal(err)
			}
			var back bytes.Buffer
			if err := ds.WriteJSONL(&back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Bytes(), jsonl) {
				t.Errorf("jsonl -> col -> jsonl is not byte-identical (%d vs %d bytes)",
					back.Len(), len(jsonl))
			}
			// Re-encoding the decoded dataset must also be columnar-stable.
			var col2 bytes.Buffer
			if err := ds.WriteCol(&col2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(col2.Bytes(), col) {
				t.Errorf("col -> jsonl -> col is not byte-identical (%d vs %d bytes)",
					col2.Len(), len(col))
			}
			// ReadAuto must land on the same dataset for both encodings.
			dsAuto, err := dataset.ReadAuto(bytes.NewReader(jsonl))
			if err != nil {
				t.Fatal(err)
			}
			if dsAuto.Len() != ds.Len() {
				t.Errorf("ReadAuto(jsonl) has %d visits, ReadCol has %d", dsAuto.Len(), ds.Len())
			}
			t.Logf("dataset size: %d bytes jsonl, %d bytes col (%.1fx)",
				len(jsonl), len(col), float64(len(jsonl))/float64(len(col)))
		})
	}
}

// formatExport captures the complete analysis export surface for the
// cross-format comparison.
type formatExport struct {
	report, json, csv, traceJL []byte
}

// analyzeArtifacts loads raw dataset bytes (either format — sniffed) and
// exports every artifact, the span trace included.
func analyzeArtifacts(t *testing.T, raw []byte, cfg Config) formatExport {
	t.Helper()
	tc := trace.New(trace.Options{Seed: cfg.Seed, SampleEvery: 1})
	cfg.Tracer = tc
	res, err := LoadAndAnalyzeContext(context.Background(), bytes.NewReader(raw), cfg)
	if err != nil {
		t.Fatal(err)
	}
	exp := exportAll(t, res)
	var jl bytes.Buffer
	if err := tc.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	exp.traceJL = jl.Bytes()
	return exp
}

func exportAll(t *testing.T, res *Results) formatExport {
	t.Helper()
	var rep, js, csv bytes.Buffer
	res.WriteReport(&rep)
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return formatExport{report: rep.Bytes(), json: js.Bytes(), csv: csv.Bytes()}
}

// TestAnalysisByteIdenticalAcrossFormats is the cross-format golden: the
// same crawl analyzed from its JSONL file and from its columnar file must
// export byte-identical reports, JSON bundles, CSV tables, and span
// traces. The columnar path takes a different code route end to end
// (site-streamed decode, per-block interned key caches, the tree
// builder's int32-id fast path), so this golden pins the whole new
// subsystem to the existing one.
func TestAnalysisByteIdenticalAcrossFormats(t *testing.T) {
	for _, faults := range []string{"", "heavy"} {
		name := faults
		if name == "" {
			name = "clean"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Seed: 11, Sites: 8, PagesPerSite: 3, FaultProfile: faults}
			jsonl, col := crawlBytes(t, cfg)

			fromJSONL := analyzeArtifacts(t, jsonl, cfg)
			fromCol := analyzeArtifacts(t, col, cfg)

			check := func(label string, a, b []byte) {
				t.Helper()
				if !bytes.Equal(a, b) {
					t.Errorf("%s differs (%d vs %d bytes)", label, len(a), len(b))
				}
			}
			check("report jsonl-vs-col", fromJSONL.report, fromCol.report)
			check("json jsonl-vs-col", fromJSONL.json, fromCol.json)
			check("csv jsonl-vs-col", fromJSONL.csv, fromCol.csv)
			check("trace jsonl-vs-col", fromJSONL.traceJL, fromCol.traceJL)
			if len(fromJSONL.traceJL) == 0 {
				t.Error("trace export is empty")
			}
		})
	}
}

// TestLoadRejectsTornCol: a columnar file cut short — as a crawl killed
// mid-write leaves it — or with a corrupted block must fail the load with
// an error, whether the single sequential scan reads it from a seekable
// reader or a plain one, even though the analysis has already consumed
// the blocks before the damage.
func TestLoadRejectsTornCol(t *testing.T) {
	cfg := Config{Seed: 11, Sites: 8, PagesPerSite: 3}
	_, col := crawlBytes(t, cfg)
	colr, err := dataset.OpenCol(bytes.NewReader(col), int64(len(col)))
	if err != nil {
		t.Fatal(err)
	}
	blocks := colr.Index().Blocks
	first, footer := blocks[0], 0
	for _, b := range blocks {
		if b.Offset < first.Offset {
			first = b
		}
		if end := int(b.Offset + b.Length); end > footer {
			footer = end
		}
	}
	const tailLen = 16 // uint64le index offset + "WMCOLEND"
	flipped := bytes.Clone(col)
	flipped[first.Offset+first.Length/2] ^= 0xff
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"mid first block", col[:first.Offset+first.Length/2]},
		{"mid last block", col[:footer-10]},
		{"before the footer", col[:footer]},
		{"before the tail", col[:len(col)-tailLen]},
		{"last byte missing", col[:len(col)-1]},
		{"flipped block byte", flipped},
	} {
		for _, rd := range []struct {
			name string
			in   io.Reader
		}{
			{"seekable", bytes.NewReader(tc.data)},
			{"plain", io.MultiReader(bytes.NewReader(tc.data))},
		} {
			if res, err := LoadAndAnalyzeContext(context.Background(), rd.in, cfg); err == nil || res != nil {
				t.Errorf("%s, %s reader: load accepted the damaged file (err %v)", tc.name, rd.name, err)
			}
		}
	}
}
