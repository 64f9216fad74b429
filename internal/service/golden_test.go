package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite "+serviceGoldenPath+" from this build")

// serviceGoldenPath holds one SHA-256 per download of
// TestServiceArtifactsGolden's jobs, under a header line naming the
// GOARCH it was recorded on.
const serviceGoldenPath = "../../scripts/golden/service.sha256"

// TestServiceArtifactsGolden pins what a client downloads from the job
// server to the hashes committed in scripts/golden/service.sha256. It runs
// three jobs on one server with the result cache off, so each of them
// runs: a traced, heavy-fault, columnar 6 × 3 job ("whole"), the same
// spec split into three shards ("shards3"), and shard 2 of that split
// submitted on its own ("shard2"). The whole and coordinator jobs pin the
// report, result.json, result.csv, both dataset downloads and both trace
// exports; the coordinator's report, JSON, CSV and traces must also equal
// the whole job's. The shard job pins both dataset downloads. A shard's
// partial.json is not pinned: it carries wall-clock histograms. A change
// that moves a download on purpose rewrites the file with
//
//	go test ./internal/service -run TestServiceArtifactsGolden -update
func TestServiceArtifactsGolden(t *testing.T) {
	s := New(Config{Workers: 2, CacheSize: -1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	whole := JobSpec{Seed: 19, Sites: 6, PagesPerSite: 3, Workers: 2, FaultProfile: "heavy", TraceSample: 1, DatasetFormat: "col"}
	sharded := whole
	sharded.Shards = 3
	shard := sharded
	shard.Shard = 2
	all := []string{"report", "result.json", "result.csv", "dataset.jsonl", "dataset.col", "trace.json", "trace.jsonl"}
	got := make(map[string]string)
	downloads := make(map[string][]byte)
	for _, job := range []struct {
		name  string
		spec  JobSpec
		files []string
	}{
		{"whole", whole, all},
		{"shards3", sharded, all},
		{"shard2", shard, []string{"dataset.jsonl", "dataset.col"}},
	} {
		v := runToDone(t, s, ts, job.spec)
		if job.name == "whole" && (v.Summary == nil || v.Summary.VettedPages == 0) {
			t.Fatalf("the whole job vetted no page, so its downloads pin no analysis: %+v", v.Summary)
		}
		for _, file := range job.files {
			code, body := get(t, ts.URL+"/v1/jobs/"+v.ID+"/"+file)
			if code != 200 || len(body) == 0 {
				t.Fatalf("%s/%s: code %d, %d bytes", job.name, file, code, len(body))
			}
			sum := sha256.Sum256(body)
			got[job.name+"/"+file] = hex.EncodeToString(sum[:])
			downloads[job.name+"/"+file] = body
		}
	}
	for _, file := range []string{"report", "result.json", "result.csv", "trace.json", "trace.jsonl"} {
		if !bytes.Equal(downloads["whole/"+file], downloads["shards3/"+file]) {
			t.Errorf("%s: the 3-shard coordinator serves %d bytes, the whole job %d", file,
				len(downloads["shards3/"+file]), len(downloads["whole/"+file]))
		}
	}

	if *updateGolden {
		var b bytes.Buffer
		fmt.Fprintf(&b, "# SHA-256 of every download of TestServiceArtifactsGolden's jobs; rewrite with -update.\n")
		fmt.Fprintf(&b, "goarch %s\n", runtime.GOARCH)
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(serviceGoldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	arch, want := readServiceGolden(t)
	if arch != runtime.GOARCH {
		t.Skipf("%s was recorded on %s, not %s: the compiler may fuse floating-point multiply-adds on this architecture, which moves the last bits of derived figures", serviceGoldenPath, arch, runtime.GOARCH)
	}
	for name, h := range want {
		switch g, ok := got[name]; {
		case !ok:
			t.Errorf("%s: no longer downloaded", name)
		case g != h:
			t.Errorf("%s: sha256 %s, golden %s", name, g, h)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: downloaded but not in %s", name, serviceGoldenPath)
		}
	}
}

// readServiceGolden parses the golden file: '#' comments, one
// "goarch <arch>" line, then "<sha256>  <name>" lines.
func readServiceGolden(t *testing.T) (arch string, hashes map[string]string) {
	t.Helper()
	f, err := os.Open(serviceGoldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	defer f.Close()
	hashes = make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if a, ok := strings.CutPrefix(line, "goarch "); ok {
			arch = a
			continue
		}
		h, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", serviceGoldenPath, line)
		}
		hashes[name] = h
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return arch, hashes
}
