package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testLimits mirrors the server defaults so specs can be normalized
// without standing up a server.
var testLimits = Limits{MaxSites: 2000, MaxPagesPerSite: 50, MaxShards: 16}

func normalized(t *testing.T, spec JobSpec) JobSpec {
	t.Helper()
	norm, err := spec.normalize(testLimits)
	if err != nil {
		t.Fatalf("normalize %+v: %v", spec, err)
	}
	return norm
}

// TestShardCacheKeyIsolation: the result cache must never hand a shard
// job another shard's (or plan's, or the whole experiment's) bytes. Every
// distinct (shards, shard, shard seed) combination needs a distinct key,
// and the unsharded spec must keep the key it had before sharding existed.
func TestShardCacheKeyIsolation(t *testing.T) {
	base := tinySpec(7)
	specs := []JobSpec{
		base, // whole experiment
		{Seed: 7, Sites: 5, PagesPerSite: 2, Shards: 2},                // 2-shard coordinator
		{Seed: 7, Sites: 5, PagesPerSite: 2, Shards: 2, Shard: 1},      // 2-shard slice 1
		{Seed: 7, Sites: 5, PagesPerSite: 2, Shards: 2, Shard: 2},      // 2-shard slice 2
		{Seed: 7, Sites: 5, PagesPerSite: 2, Shards: 4},                // 4-shard coordinator
		{Seed: 7, Sites: 5, PagesPerSite: 2, Shards: 4, Shard: 1},      // 4-shard slice 1
		{Seed: 7, Sites: 5, PagesPerSite: 2, Shards: 2, ShardSeed: 99}, // reseeded plan
		{Seed: 7, Sites: 5, PagesPerSite: 2, Shards: 2, Shard: 1, ShardSeed: 99},
	}
	seen := map[string]JobSpec{}
	for _, spec := range specs {
		key := normalized(t, spec).cacheKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("specs %+v and %+v share cache key %q", prev, spec, key)
		}
		seen[key] = spec
	}

	// Worker count must still be invisible to the key — sharded or not.
	workers := base
	workers.Workers = 7
	if normalized(t, workers).cacheKey() != normalized(t, base).cacheKey() {
		t.Error("worker count leaked into the cache key")
	}
	// Same for the crawl's site-worker pool: the crawl output is
	// byte-identical for every pool size, so the result is shareable.
	siteWorkers := base
	siteWorkers.SiteWorkers = 6
	if normalized(t, siteWorkers).cacheKey() != normalized(t, base).cacheKey() {
		t.Error("site-worker count leaked into the cache key")
	}
	// An unsharded spec must not grow shard fields in its key: cached
	// results from before a redeploy with sharding enabled stay valid.
	if key := normalized(t, base).cacheKey(); strings.Contains(key, "shard") {
		t.Errorf("unsharded cache key mentions sharding: %s", key)
	}
}

// TestShardSpecValidation: malformed shard specs are rejected at submit
// time, not deep inside a worker.
func TestShardSpecValidation(t *testing.T) {
	if _, err := (JobSpec{Shard: 1}).normalize(testLimits); err == nil {
		t.Error("shard without shards accepted")
	}
	if _, err := (JobSpec{Shards: 2, Shard: 3}).normalize(testLimits); err == nil {
		t.Error("shard beyond shards accepted")
	}
	if _, err := (JobSpec{Shards: 99}).normalize(testLimits); err == nil {
		t.Error("shards beyond MaxShards accepted")
	}
	norm, err := (JobSpec{Seed: 3, Shards: 2}).normalize(testLimits)
	if err != nil {
		t.Fatal(err)
	}
	if norm.ShardSeed != 3 {
		t.Errorf("shard seed defaulted to %d, want the job seed 3", norm.ShardSeed)
	}
}

// fetchArtifacts downloads the three text artifacts of a done job.
func fetchArtifacts(t *testing.T, ts *httptest.Server, id string) (report, js, csv []byte) {
	t.Helper()
	code, rep := get(t, ts.URL+"/v1/jobs/"+id+"/report")
	if code != 200 {
		t.Fatalf("report fetch: %d", code)
	}
	code, j := get(t, ts.URL+"/v1/jobs/"+id+"/result.json")
	if code != 200 {
		t.Fatalf("json fetch: %d", code)
	}
	code, c := get(t, ts.URL+"/v1/jobs/"+id+"/result.csv")
	if code != 200 {
		t.Fatalf("csv fetch: %d", code)
	}
	return rep, j, c
}

// runToDone submits a spec and waits for a terminal state.
func runToDone(t *testing.T, s *Server, ts *httptest.Server, spec JobSpec) jobJSON {
	t.Helper()
	v, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d", code)
	}
	v = pollDone(t, s, ts, v.ID)
	if v.State != StateDone {
		t.Fatalf("job ended %q (err %q)", v.State, v.Error)
	}
	return v
}

// counterValue reads one counter from a server's registry.
func counterValue(s *Server, name string) int64 {
	for _, c := range s.Metrics().Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestCoordinatorMatchesSingleProcess: a coordinator job with no remote
// workers (every shard runs in-process) must publish report/JSON/CSV
// byte-identical to the plain unsharded job, under fault injection, and
// its registry's fault, retry and span counter families must equal the
// single process's — the coordinator sees the sum over shards' crawls
// plus its own analysis.
func TestCoordinatorMatchesSingleProcess(t *testing.T) {
	single := New(Config{Workers: 2})
	defer single.Shutdown(context.Background())
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	coord := New(Config{Workers: 2})
	defer coord.Shutdown(context.Background())
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	spec := JobSpec{Seed: 13, Sites: 6, PagesPerSite: 3, Workers: 2, FaultProfile: "heavy", TraceSample: 1}
	sv := runToDone(t, single, singleTS, spec)
	sRep, sJS, sCSV := fetchArtifacts(t, singleTS, sv.ID)

	shardSpec := spec
	shardSpec.Shards = 3
	cv := runToDone(t, coord, coordTS, shardSpec)
	cRep, cJS, cCSV := fetchArtifacts(t, coordTS, cv.ID)

	if !bytes.Equal(sRep, cRep) {
		t.Errorf("report differs: single %d bytes, coordinator %d bytes", len(sRep), len(cRep))
	}
	if !bytes.Equal(sJS, cJS) {
		t.Errorf("result.json differs: single %d bytes, coordinator %d bytes", len(sJS), len(cJS))
	}
	if !bytes.Equal(sCSV, cCSV) {
		t.Errorf("result.csv differs: single %d bytes, coordinator %d bytes", len(sCSV), len(cCSV))
	}

	sawFault, sawSpans := false, false
	for _, c := range single.Metrics().Snapshot().Counters {
		spans := strings.HasPrefix(c.Name, "trace.spans.")
		if !spans && !strings.HasPrefix(c.Name, "faults.injected") && !strings.HasPrefix(c.Name, "crawl.retries.total") {
			continue
		}
		sawFault = sawFault || !spans
		sawSpans = sawSpans || spans
		if got := counterValue(coord, c.Name); got != c.Value {
			t.Errorf("counter %s: coordinator has %d, single process has %d", c.Name, got, c.Value)
		}
	}
	if !sawFault || !sawSpans {
		t.Errorf("traced heavy-fault job recorded fault counters %v, span counters %v; want both to compare", sawFault, sawSpans)
	}
}

// TestShardWorkerFailure: one shard worker answers every request with a
// 500; the coordinator must retry the dispatch on the healthy worker and
// still publish artifacts byte-identical to the unsharded job (satellite:
// shard-worker fault tolerance).
func TestShardWorkerFailure(t *testing.T) {
	// Golden bytes from a plain unsharded server.
	golden := New(Config{Workers: 2})
	defer golden.Shutdown(context.Background())
	goldenTS := httptest.NewServer(golden.Handler())
	defer goldenTS.Close()
	spec := JobSpec{Seed: 17, Sites: 6, PagesPerSite: 3, Workers: 2, FaultProfile: "light"}
	gv := runToDone(t, golden, goldenTS, spec)
	gRep, gJS, gCSV := fetchArtifacts(t, goldenTS, gv.ID)

	// A healthy shard worker and one that always fails.
	worker := New(Config{Workers: 2})
	defer worker.Shutdown(context.Background())
	workerTS := httptest.NewServer(worker.Handler())
	defer workerTS.Close()
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "injected worker outage", http.StatusInternalServerError)
	}))
	defer broken.Close()

	// The broken worker is listed first, so every shard dispatch hits it
	// before failing over to the healthy one. A dispatch tries both
	// workers (shardAttempts clamped to two); the short poll only
	// shortens the test.
	coord := New(Config{
		Workers:      2,
		ShardWorkers: []string{broken.URL, workerTS.URL},
	})
	coord.shard.poll = 10 * time.Millisecond
	defer coord.Shutdown(context.Background())
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	shardSpec := spec
	shardSpec.Shards = 2
	cv := runToDone(t, coord, coordTS, shardSpec)
	cRep, cJS, cCSV := fetchArtifacts(t, coordTS, cv.ID)

	if !bytes.Equal(gRep, cRep) {
		t.Error("report differs from the unsharded golden after a worker failure")
	}
	if !bytes.Equal(gJS, cJS) {
		t.Error("result.json differs from the unsharded golden after a worker failure")
	}
	if !bytes.Equal(gCSV, cCSV) {
		t.Error("result.csv differs from the unsharded golden after a worker failure")
	}
	if got := counterValue(coord, "service.shard.dispatch_retries"); got < 1 {
		t.Errorf("service.shard.dispatch_retries = %d, want ≥ 1 (broken worker was first in line)", got)
	}
	if got := counterValue(coord, "service.shard.remote"); got < 1 {
		t.Errorf("service.shard.remote = %d, want ≥ 1 (healthy worker should have served shards)", got)
	}
}

// TestShardWorkerAllDead: when every configured worker is down the
// coordinator falls back to computing the shards locally — availability
// degrades, correctness does not.
func TestShardWorkerAllDead(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "injected worker outage", http.StatusInternalServerError)
	}))
	defer broken.Close()

	// One attempt on the one worker (shardAttempts clamped), then the
	// local crawl; the short poll only shortens the test.
	coord := New(Config{
		Workers:      2,
		ShardWorkers: []string{broken.URL},
	})
	coord.shard.poll = 10 * time.Millisecond
	defer coord.Shutdown(context.Background())
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	spec := JobSpec{Seed: 23, Sites: 5, PagesPerSite: 2, Workers: 2, Shards: 2}
	v := runToDone(t, coord, coordTS, spec)
	if v.Summary == nil || v.Summary.Sites == 0 {
		t.Fatalf("local-fallback job carries no summary: %+v", v)
	}
	if got := counterValue(coord, "service.shard.local_fallbacks"); got < 2 {
		t.Errorf("service.shard.local_fallbacks = %d, want ≥ 2 (both shards had no worker)", got)
	}
}

// TestShardJobPublishesPartial: a direct shard job exposes partial.json
// (and no report), a whole job exposes the report (and no partial).
func TestShardJobPublishesPartial(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Seed: 29, Sites: 5, PagesPerSite: 2, Workers: 2, Shards: 2, Shard: 1}
	v := runToDone(t, s, ts, spec)
	if code, body := get(t, ts.URL+"/v1/jobs/"+v.ID+"/partial.json"); code != 200 || !bytes.Contains(body, []byte(`"schema"`)) {
		t.Errorf("partial.json fetch: code %d, %d bytes", code, len(body))
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/"+v.ID+"/report"); code != 404 {
		t.Errorf("shard job served a report (code %d), want 404", code)
	}

	whole := runToDone(t, s, ts, tinySpec(29))
	if code, _ := get(t, ts.URL+"/v1/jobs/"+whole.ID+"/partial.json"); code != 404 {
		t.Errorf("whole job served partial.json (code %d), want 404", code)
	}
}
