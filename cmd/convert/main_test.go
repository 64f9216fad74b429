package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webmeasure"
	"webmeasure/internal/dataset"
)

// crawlJSONL writes a small crawl's dataset as JSONL into dir.
func crawlJSONL(t *testing.T, dir string) (path string, jsonl []byte) {
	t.Helper()
	res, err := webmeasure.Run(context.Background(), webmeasure.Config{Seed: 3, Sites: 5, PagesPerSite: 2, FaultProfile: "heavy"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteDataset(&buf); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, "crawl.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// convert runs the command and returns its exit code and stderr.
func convert(args ...string) (int, string) {
	var stderr bytes.Buffer
	code := run(args, &stderr)
	return code, stderr.String()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// formatOf sniffs a file's dataset format.
func formatOf(t *testing.T, path string) string {
	t.Helper()
	format, _, err := dataset.DetectFormat(bytes.NewReader(readFile(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	return format
}

// TestConvertRoundTrip: jsonl → col → jsonl gives back the crawl's JSONL
// byte for byte, with the formats named explicitly and picked by -to auto.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in, want := crawlJSONL(t, dir)
	for _, to := range [][2]string{{"col", "jsonl"}, {"auto", "auto"}} {
		col := filepath.Join(dir, "crawl-"+to[0]+".col")
		back := filepath.Join(dir, "back-"+to[1]+".jsonl")
		if code, msg := convert("-i", in, "-o", col, "-to", to[0]); code != 0 {
			t.Fatalf("-to %s: exit %d: %s", to[0], code, msg)
		}
		if got := formatOf(t, col); got != dataset.FormatCol {
			t.Errorf("-to %s on a JSONL input wrote %s", to[0], got)
		}
		code, msg := convert("-i", col, "-o", back, "-to", to[1])
		if code != 0 {
			t.Fatalf("-to %s: exit %d: %s", to[1], code, msg)
		}
		if !strings.Contains(msg, "(col) -> "+back+" (jsonl)") {
			t.Errorf("-to %s: summary line does not name the formats: %s", to[1], msg)
		}
		if got := readFile(t, back); !bytes.Equal(got, want) {
			t.Errorf("-to %s then -to %s: the round trip gives %d bytes, the crawl wrote %d", to[0], to[1], len(got), len(want))
		}
	}
}

// TestConvertTornColumnar: a truncated columnar file exits 1 and says why.
func TestConvertTornColumnar(t *testing.T) {
	dir := t.TempDir()
	in, _ := crawlJSONL(t, dir)
	col := filepath.Join(dir, "crawl.col")
	if code, msg := convert("-i", in, "-o", col); code != 0 {
		t.Fatalf("exit %d: %s", code, msg)
	}
	b := readFile(t, col)
	torn := filepath.Join(dir, "torn.col")
	if err := os.WriteFile(torn, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	code, msg := convert("-i", torn, "-o", filepath.Join(dir, "out.jsonl"))
	if code != 1 || !strings.Contains(msg, "convert: read "+torn) {
		t.Errorf("torn columnar input: exit %d, stderr %q; want exit 1 naming the input", code, msg)
	}
}

// TestConvertUnknownFormat: an unknown -to is a usage error, exit 2.
func TestConvertUnknownFormat(t *testing.T) {
	code, msg := convert("-i", "in", "-o", "out", "-to", "parquet")
	if code != 2 || !strings.Contains(msg, `unknown -to "parquet"`) {
		t.Errorf("-to parquet: exit %d, stderr %q; want exit 2", code, msg)
	}
}
