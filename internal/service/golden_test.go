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
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"webmeasure"
)

var updateGolden = flag.Bool("update", false, "rewrite "+serviceGoldenPath+" and "+monitorGoldenPath+" from this build")

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

	checkGolden(t, serviceGoldenPath, "every download of TestServiceArtifactsGolden's jobs", got)
}

// monitorGoldenPath holds one SHA-256 per file of
// TestMonitorStateGolden's state directory, under the same header.
const monitorGoldenPath = "../../scripts/golden/monitor.sha256"

// TestMonitorStateGolden pins a monitor's state directory to the hashes
// committed in scripts/golden/monitor.sha256. A 17-epoch monitor (seed 7,
// 6 sites × 3 pages, heavy faults, pinned at epoch 3) writes 49 files: 17
// baselines, 16 sequential deltas, 13 pinned deltas, alerts.jsonl,
// drift.csv and drift-report.txt. A second server then resumes a copy
// that lost every baseline and delta after epoch 8 and whose alerts.jsonl
// and drift-report.txt end mid-line, as a crash leaves them; it must
// re-crawl only epochs 9–16 and write the same 49 files. A change that
// moves a file on purpose rewrites the golden with
//
//	go test ./internal/service -run TestMonitorStateGolden -update
func TestMonitorStateGolden(t *testing.T) {
	const epochs, pin, cut = 17, 3, 8
	spec := JobSpec{Seed: 7, Sites: 6, PagesPerSite: 3, FaultProfile: "heavy"}
	run := func(dir string) (crawled []int) {
		t.Helper()
		s := New(Config{
			Workers: 1,
			Runner: func(ctx context.Context, cfg webmeasure.Config) (*webmeasure.Results, error) {
				crawled = append(crawled, cfg.Epoch) // the loop runs one epoch at a time
				return webmeasure.Run(ctx, cfg)
			},
			Monitor: &MonitorConfig{Spec: spec, Epochs: epochs, StateDir: dir, PinEpoch: pin},
		})
		defer shutdownServer(t, s)
		select {
		case <-s.MonitorDone():
		case <-time.After(5 * time.Minute):
			t.Fatal("monitor did not finish")
		}
		if st, _ := s.MonitorStatus(); st.LastError != "" || st.EpochsDone != epochs {
			t.Fatalf("monitor over %s: %d epochs, error %q", dir, st.EpochsDone, st.LastError)
		}
		return crawled
	}
	hashes := func(dir string) map[string]string {
		t.Helper()
		out := make(map[string]string)
		for name, data := range readStateDir(t, dir) {
			sum := sha256.Sum256(data)
			out[name] = hex.EncodeToString(sum[:])
		}
		return out
	}

	dir := t.TempDir()
	run(dir)
	got := hashes(dir)
	if len(got) != 49 {
		t.Fatalf("state directory holds %d files, want 49", len(got))
	}

	// Resume a copy torn after epoch 8.
	torn := t.TempDir()
	for name, data := range readStateDir(t, dir) {
		switch {
		case strings.HasSuffix(name, ".json"):
			// baseline-eNNNN.json, pinned-eNNNN.json, delta-eMMMM-eNNNN.json
			if to, _ := strconv.Atoi(name[len(name)-9 : len(name)-5]); to > cut {
				continue
			}
		case name == "alerts.jsonl" || name == "drift-report.txt":
			// End the file halfway through its last line.
			if len(data) < 2 {
				t.Fatalf("%s holds no line to tear", name)
			}
			nl := bytes.LastIndexByte(data[:len(data)-1], '\n')
			data = data[:nl+1+(len(data)-nl-1)/2]
			if bytes.HasSuffix(data, []byte("\n")) {
				t.Fatalf("%s: the cut fell on a line end", name)
			}
		}
		if err := os.WriteFile(filepath.Join(torn, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if crawled := run(torn); fmt.Sprint(crawled) != "[9 10 11 12 13 14 15 16]" {
		t.Errorf("the resumed monitor crawled epochs %v, want 9 through 16", crawled)
	}
	resumed := hashes(torn)
	for name, h := range got {
		if resumed[name] != h {
			t.Errorf("%s: the resumed monitor wrote sha256 %s, the uninterrupted one %s", name, resumed[name], h)
		}
	}
	if len(resumed) != len(got) {
		t.Errorf("the resumed state directory holds %d files, the uninterrupted one %d", len(resumed), len(got))
	}
	checkGolden(t, monitorGoldenPath, "every file of TestMonitorStateGolden's monitor state directory", got)
}

// checkGolden compares got (name → SHA-256) with the golden file at path,
// or rewrites that file under -update. what describes the hashed files in
// the file's comment line. The golden skips on a GOARCH other than the
// one it was recorded on.
func checkGolden(t *testing.T, path, what string, got map[string]string) {
	t.Helper()
	if *updateGolden {
		var b bytes.Buffer
		fmt.Fprintf(&b, "# SHA-256 of %s; rewrite with -update.\n", what)
		fmt.Fprintf(&b, "goarch %s\n", runtime.GOARCH)
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	arch, want := readGolden(t, path)
	if arch != runtime.GOARCH {
		t.Skipf("%s was recorded on %s, not %s: the compiler may fuse floating-point multiply-adds on this architecture, which moves the last bits of derived figures", path, arch, runtime.GOARCH)
	}
	for name, h := range want {
		switch g, ok := got[name]; {
		case !ok:
			t.Errorf("%s: no longer written", name)
		case g != h:
			t.Errorf("%s: sha256 %s, golden %s", name, g, h)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written but not in %s", name, path)
		}
	}
}

// readGolden parses a golden file: '#' comments, one "goarch <arch>"
// line, then "<sha256>  <name>" lines.
func readGolden(t *testing.T, path string) (arch string, hashes map[string]string) {
	t.Helper()
	f, err := os.Open(path)
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
			t.Fatalf("%s: malformed line %q", path, line)
		}
		hashes[name] = h
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return arch, hashes
}
