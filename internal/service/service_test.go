package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"webmeasure"
	"webmeasure/internal/dataset"
	"webmeasure/internal/metrics"
)

// tinySpec is the spec every fast test submits: a five-site universe
// crawled with two subpages per site.
func tinySpec(seed int64) JobSpec {
	return JobSpec{Seed: seed, Sites: 5, PagesPerSite: 2, Workers: 2}
}

// postJob submits a spec and decodes the job view.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (jobJSON, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return v, resp.StatusCode
}

// pollDone waits on the job's Done channel and then fetches the status
// endpoint once — no sleep polling, no timing sensitivity.
func pollDone(t *testing.T, s *Server, ts *httptest.Server, id string) jobJSON {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never finished", id)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if !v.State.terminal() {
		t.Fatalf("job %s done but status reports %q", id, v.State)
	}
	return v
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestSubmitPollFetchArtifacts is the happy path: submit → poll → fetch
// every artifact, and cross-check the service's result.json against the
// batch pipeline (LoadAndAnalyzeContext, as cmd/analyze runs it) fed with
// the service's own dataset download — the two paths must agree byte for
// byte.
func TestSubmitPollFetchArtifacts(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := tinySpec(7)
	v, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d, want 202", code)
	}
	if v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("fresh job state = %q", v.State)
	}

	v = pollDone(t, s, ts, v.ID)
	if v.State != StateDone {
		t.Fatalf("job ended %q (err %q)", v.State, v.Error)
	}
	if v.Summary == nil || v.Summary.Sites == 0 {
		t.Fatalf("done job carries no summary: %+v", v)
	}

	code, rep := get(t, ts.URL+"/v1/jobs/"+v.ID+"/report")
	if code != 200 || !bytes.Contains(rep, []byte("Table 2")) {
		t.Fatalf("report fetch: code %d, %d bytes", code, len(rep))
	}
	code, csv := get(t, ts.URL+"/v1/jobs/"+v.ID+"/result.csv")
	if code != 200 || !bytes.Contains(csv, []byte("# table2_tree_overview.csv")) {
		t.Fatalf("csv fetch: code %d, missing section header", code)
	}
	code, js := get(t, ts.URL+"/v1/jobs/"+v.ID+"/result.json")
	if code != 200 || len(js) == 0 {
		t.Fatalf("json fetch: code %d, %d bytes", code, len(js))
	}
	code, jsonl := get(t, ts.URL+"/v1/jobs/"+v.ID+"/dataset.jsonl")
	if code != 200 || len(jsonl) == 0 {
		t.Fatalf("dataset fetch: code %d, %d bytes", code, len(jsonl))
	}

	// Batch-path cross-check: analyzing the downloaded dataset with the
	// same flags must reproduce the served result.json exactly.
	res, err := webmeasure.LoadAndAnalyzeContext(context.Background(), bytes.NewReader(jsonl), webmeasure.Config{
		Seed: spec.Seed, Sites: spec.Sites, PagesPerSite: spec.PagesPerSite,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), js) {
		t.Fatalf("service result.json (%d bytes) differs from batch analysis (%d bytes)",
			len(js), want.Len())
	}
}

// TestCacheHitServesSameBytes submits the same spec twice: the second
// submission must resolve instantly from cache with identical artifact
// bytes, and the hit must show on /metrics.
func TestCacheHitServesSameBytes(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first, code := postJob(t, ts, tinySpec(11))
	if code != http.StatusAccepted {
		t.Fatalf("first submit code = %d", code)
	}
	first = pollDone(t, s, ts, first.ID)
	if first.State != StateDone {
		t.Fatalf("first job: %q (%s)", first.State, first.Error)
	}

	// Different worker count, same experiment: must still hit the cache.
	again := tinySpec(11)
	again.Workers = 7
	second, code := postJob(t, ts, again)
	if code != http.StatusOK {
		t.Fatalf("cache-hit submit code = %d, want 200", code)
	}
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("second job not a cache hit: %+v", second)
	}
	_, a := get(t, ts.URL+"/v1/jobs/"+first.ID+"/result.json")
	_, b := get(t, ts.URL+"/v1/jobs/"+second.ID+"/result.json")
	if !bytes.Equal(a, b) {
		t.Fatal("cache hit served different result.json bytes")
	}
	_, ra := get(t, ts.URL+"/v1/jobs/"+first.ID+"/report")
	_, rb := get(t, ts.URL+"/v1/jobs/"+second.ID+"/report")
	if !bytes.Equal(ra, rb) {
		t.Fatal("cache hit served different report bytes")
	}

	if hits := s.Metrics().Counter("service.cache.hits").Value(); hits != 1 {
		t.Fatalf("cache hit counter = %d, want 1", hits)
	}
	code, prom := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics code = %d", code)
	}
	for _, want := range []string{
		"service_cache_hits 1",
		"service_jobs_submitted 2",
		"# TYPE service_job_ms histogram",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestServedDatasetsMatchRun downloads both dataset encodings of finished
// jobs. A whole columnar job's downloads must equal webmeasure.Run's own
// exports for the same config, clean and under heavy faults, and its
// cache-hit resubmission must serve the same bytes. A coordinator's and a
// shard job's dataset.jsonl must equal their dataset.col decoded and
// written back as JSONL.
func TestServedDatasetsMatchRun(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	download := func(id string) (jsonl, col []byte) {
		t.Helper()
		code, jsonl := get(t, ts.URL+"/v1/jobs/"+id+"/dataset.jsonl")
		if code != 200 {
			t.Fatalf("job %s dataset.jsonl: code %d", id, code)
		}
		code, col = get(t, ts.URL+"/v1/jobs/"+id+"/dataset.col")
		if code != 200 {
			t.Fatalf("job %s dataset.col: code %d", id, code)
		}
		return jsonl, col
	}

	for _, fault := range []string{"", "heavy"} {
		spec := JobSpec{Seed: 31, Sites: 5, PagesPerSite: 2, Workers: 2, FaultProfile: fault, DatasetFormat: "col"}
		v := runToDone(t, s, ts, spec)
		if v.Artifacts["dataset_col"] == "" {
			t.Fatalf("faults %q: columnar job lists no dataset_col artifact: %v", fault, v.Artifacts)
		}
		jsonl, col := download(v.ID)

		r, err := webmeasure.Run(context.Background(), normalized(t, spec).config(metrics.New()))
		if err != nil {
			t.Fatal(err)
		}
		var wantJSONL, wantCol bytes.Buffer
		if err := r.WriteDataset(&wantJSONL); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteDatasetCol(&wantCol); err != nil {
			t.Fatal(err)
		}
		if wantJSONL.Len() == 0 {
			t.Fatalf("faults %q: Run wrote an empty dataset", fault)
		}
		if !bytes.Equal(jsonl, wantJSONL.Bytes()) {
			t.Errorf("faults %q: dataset.jsonl (%d bytes) differs from Run's WriteDataset (%d bytes)", fault, len(jsonl), wantJSONL.Len())
		}
		if !bytes.Equal(col, wantCol.Bytes()) {
			t.Errorf("faults %q: dataset.col (%d bytes) differs from Run's WriteDatasetCol (%d bytes)", fault, len(col), wantCol.Len())
		}

		hit, code := postJob(t, ts, spec)
		if code != http.StatusOK || !hit.CacheHit {
			t.Fatalf("faults %q: resubmission not a cache hit (code %d): %+v", fault, code, hit)
		}
		hitJSONL, hitCol := download(hit.ID)
		if !bytes.Equal(hitJSONL, jsonl) || !bytes.Equal(hitCol, col) {
			t.Errorf("faults %q: cache hit served different dataset bytes", fault)
		}
	}

	for _, spec := range []JobSpec{
		{Seed: 37, Sites: 6, PagesPerSite: 2, Workers: 2, FaultProfile: "heavy", Shards: 3},
		{Seed: 39, Sites: 6, PagesPerSite: 2, Workers: 2, FaultProfile: "heavy", Shards: 3, Shard: 2},
	} {
		v := runToDone(t, s, ts, spec)
		jsonl, col := download(v.ID)
		ds, err := dataset.ReadCol(bytes.NewReader(col))
		if err != nil {
			t.Fatalf("shards %d shard %d: dataset.col does not decode: %v", spec.Shards, spec.Shard, err)
		}
		var want bytes.Buffer
		if err := ds.WriteJSONL(&want); err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 || !bytes.Equal(jsonl, want.Bytes()) {
			t.Errorf("shards %d shard %d: dataset.jsonl (%d bytes) differs from decoded dataset.col (%d bytes)",
				spec.Shards, spec.Shard, len(jsonl), want.Len())
		}
	}
}

// TestResultBytesGauge: service.results.bytes sums the artifacts held by
// the jobs that finished by running (for an untraced whole job: report,
// result.json, result.csv and dataset.col), and a cache hit, which shares
// its source's result, leaves it where it was.
func TestResultBytesGauge(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	held := 0
	for _, seed := range []int64{41, 43} {
		v := runToDone(t, s, ts, tinySpec(seed))
		for _, name := range []string{"report", "result.json", "result.csv", "dataset.col"} {
			code, body := get(t, ts.URL+"/v1/jobs/"+v.ID+"/"+name)
			if code != 200 {
				t.Fatalf("job %s %s: code %d", v.ID, name, code)
			}
			held += len(body)
		}
	}
	want := fmt.Sprintf("\nservice_results_bytes %d\n", held)
	scrape := func(when string) {
		t.Helper()
		code, prom := get(t, ts.URL+"/metrics")
		if code != 200 || !strings.Contains(string(prom), want) {
			t.Fatalf("%s: /metrics (code %d) lacks %q", when, code, strings.TrimSpace(want))
		}
	}
	scrape("after two fresh jobs")
	if hit, code := postJob(t, ts, tinySpec(41)); code != http.StatusOK || !hit.CacheHit {
		t.Fatalf("resubmission not a cache hit (code %d): %+v", code, hit)
	}
	scrape("after a cache hit")
}

// TestResultArtifactsExactSize: a traced job keeps every artifact at its
// exact size, so the lengths service.results.bytes sums are what the job
// holds, with no spare capacity behind them.
func TestResultArtifactsExactSize(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	spec := tinySpec(7)
	spec.TraceSample = 1
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	s.mu.Lock()
	res, state := job.res, job.state
	s.mu.Unlock()
	if state != StateDone || res == nil {
		t.Fatalf("traced job ended %q", state)
	}
	for name, b := range map[string][]byte{
		"report": res.report, "result.json": res.json, "result.csv": res.csv,
		"dataset.col": res.datasetCol, "trace.json": res.traceChrome, "trace.jsonl": res.traceJSONL,
	} {
		if len(b) == 0 || len(b) != cap(b) {
			t.Errorf("%s: len %d, cap %d", name, len(b), cap(b))
		}
	}
}

// blockingServer builds a server whose runner parks until release is
// closed (or the job context fires), so tests can hold the worker busy
// deterministically.
func blockingServer(t *testing.T, cfg Config, release <-chan struct{}) *Server {
	t.Helper()
	cfg.Runner = func(ctx context.Context, wcfg webmeasure.Config) (*webmeasure.Results, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
		}
		return webmeasure.Run(ctx, wcfg)
	}
	return New(cfg)
}

// TestQueueBackpressure fills the queue behind a parked worker and
// expects 429 + Retry-After for the overflow submission.
func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	s := blockingServer(t, Config{Workers: 1, QueueDepth: 1}, release)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	running, code := postJob(t, ts, tinySpec(1)) // claimed by the worker
	if code != http.StatusAccepted {
		t.Fatalf("submit 1 code = %d", code)
	}
	waitRunning(t, s, running.ID)
	if _, code = postJob(t, ts, tinySpec(2)); code != http.StatusAccepted { // fills the queue
		t.Fatalf("submit 2 code = %d", code)
	}

	body, err := json.Marshal(tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit code = %d, want 429", resp.StatusCode)
	}
	retryAfter := resp.Header.Get("Retry-After")
	if retryAfter == "" {
		t.Fatal("429 response missing Retry-After")
	}
	secs, err := strconv.Atoi(retryAfter)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", retryAfter, err)
	}
	if secs < 1 || secs > 60 {
		t.Fatalf("Retry-After = %d, want within [1, 60]", secs)
	}
	if rejected := s.Metrics().Counter("service.jobs.rejected").Value(); rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", rejected)
	}
	close(release)
}

// TestRetryAfterDrainEstimate pins the 429 Retry-After arithmetic: the
// next slot opens in about meanJobMS/Workers, rounded up to whole
// seconds and clamped to [1, 60].
func TestRetryAfterDrainEstimate(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	observe := func(ms float64) {
		s.mu.Lock()
		s.jobMS[s.jobsTimed%jobWindow] = ms
		s.jobsTimed++
		s.mu.Unlock()
	}

	// No finished jobs yet: no drain rate to derive, so the floor.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("retry-after with no history = %d, want 1", got)
	}

	// Mean 3000ms over 2 workers: ceil(3000/2/1000) = 2.
	observe(2000)
	observe(4000)
	if got := s.retryAfterSeconds(); got != 2 {
		t.Fatalf("retry-after = %d, want 2", got)
	}

	// Huge jobs clamp at the 60s ceiling rather than telling clients to
	// come back in an hour.
	for i := 0; i < jobWindow; i++ {
		observe(10 * 60 * 1000)
	}
	if got := s.retryAfterSeconds(); got != 60 {
		t.Fatalf("retry-after = %d, want clamped 60", got)
	}
}

// waitRunning blocks on the job's Started channel until a worker picks it
// up, then asserts it is actually running (the blocking runner guarantees
// it cannot have finished).
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	select {
	case <-j.Started():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never started", id)
	}
	s.mu.Lock()
	st := j.state
	s.mu.Unlock()
	if st != StateRunning {
		t.Fatalf("job %s started but is %q, want %q", id, st, StateRunning)
	}
}

// TestCancelRunningJob cancels a job mid-execution via DELETE and checks
// the canceled state propagates to status and artifact routes.
func TestCancelRunningJob(t *testing.T) {
	release := make(chan struct{})
	s := blockingServer(t, Config{Workers: 1}, release)
	defer s.Shutdown(context.Background())
	defer close(release) // LIFO: release the runner before the drain waits
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, tinySpec(1))
	waitRunning(t, s, v.ID)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel code = %d", resp.StatusCode)
	}

	final := pollDone(t, s, ts, v.ID)
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %q", final.State)
	}
	if canceled := s.Metrics().Counter("service.jobs.canceled").Value(); canceled != 1 {
		t.Fatalf("canceled counter = %d, want 1", canceled)
	}
	code, _ := get(t, ts.URL+"/v1/jobs/"+v.ID+"/result.json")
	if code != http.StatusGone {
		t.Fatalf("artifact of canceled job = %d, want 410", code)
	}
}

// TestCancelQueuedJob cancels a job that never started.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	s := blockingServer(t, Config{Workers: 1, QueueDepth: 4}, release)
	defer s.Shutdown(context.Background())
	defer close(release) // LIFO: release the runner before the drain waits

	blocker, err := s.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := s.Cancel(queued.ID); !ok || j != queued {
		t.Fatal("cancel of queued job failed")
	}
	select {
	case <-queued.Done():
	case <-time.After(time.Second):
		t.Fatal("canceled queued job did not resolve")
	}
	s.mu.Lock()
	st := queued.state
	s.mu.Unlock()
	if st != StateCanceled {
		t.Fatalf("queued job state = %q", st)
	}
	_ = blocker
}

// TestSubmitValidation rejects malformed and over-limit specs.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1, Limits: Limits{MaxSites: 10, MaxPagesPerSite: 5}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"unknown field":         `{"sitez": 5}`,
		"over max sites":        `{"sites": 999}`,
		"over max pages":        `{"pages_per_site": 50}`,
		"unknown profile":       `{"profiles": ["NoSuchBrowser"]}`,
		"unknown fault profile": `{"fault_profile": "chaos"}`,
		"negative epoch":        `{"epoch": -1}`,
		"not json":              `sites=5`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400", name, resp.StatusCode)
		}
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
}

// TestSubmitRejectsNegativeCounts: a negative sites, pages_per_site,
// tranco_size or instances answers 400 with the JSON error envelope
// naming the field, while zero still means the default.
func TestSubmitRejectsNegativeCounts(t *testing.T) {
	s := New(Config{Workers: 1, Limits: Limits{MaxSites: 10, MaxPagesPerSite: 5}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body  string
		code  int
		field string // named by the 400's error message
		spec  JobSpec
	}{
		{body: `{"sites": -5}`, code: http.StatusBadRequest, field: "sites"},
		{body: `{"sites": 5, "pages_per_site": -1}`, code: http.StatusBadRequest, field: "pages_per_site"},
		{body: `{"sites": 5, "tranco_size": -100}`, code: http.StatusBadRequest, field: "tranco_size"},
		{body: `{"sites": 5, "instances": -2}`, code: http.StatusBadRequest, field: "instances"},
		{body: `{"seed": 3, "sites": 5, "pages_per_site": 2, "tranco_size": 0, "instances": 0}`, code: http.StatusAccepted,
			spec: JobSpec{Sites: 5, PagesPerSite: 2, TrancoSize: 50, Instances: 15}},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code {
			t.Errorf("%s: code = %d, want %d (%s)", tc.body, resp.StatusCode, tc.code, raw)
			continue
		}
		if tc.code != http.StatusAccepted {
			var e apiError
			if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, ": "+tc.field+" -") {
				t.Errorf("%s: body %s is not the error envelope naming %s (%v)", tc.body, raw, tc.field, err)
			}
			continue
		}
		var v jobJSON
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		got := JobSpec{Sites: v.Spec.Sites, PagesPerSite: v.Spec.PagesPerSite, TrancoSize: v.Spec.TrancoSize, Instances: v.Spec.Instances}
		if !reflect.DeepEqual(got, tc.spec) {
			t.Errorf("%s: normalized counts %+v, want the defaults %+v", tc.body, got, tc.spec)
		}
	}
	s.mu.Lock()
	n := len(s.order)
	s.mu.Unlock()
	if n != 1 {
		t.Errorf("%d jobs exist, want only the accepted one", n)
	}
}

// TestSpecCanonicalization: different spellings of the same experiment
// share one cache key; different experiments do not.
func TestSpecCanonicalization(t *testing.T) {
	limits := Limits{MaxSites: 2000, MaxPagesPerSite: 100}
	key := func(s JobSpec) string {
		t.Helper()
		n, err := s.normalize(limits)
		if err != nil {
			t.Fatal(err)
		}
		return n.cacheKey()
	}
	base := key(JobSpec{})
	if key(JobSpec{Seed: 1, Sites: 100, PagesPerSite: 10, Workers: 9}) != base {
		t.Error("defaulted spec and explicit defaults should share a key")
	}
	if key(JobSpec{Seed: 2}) == base {
		t.Error("different seed must change the key")
	}
	if key(JobSpec{Epoch: 1}) == base {
		t.Error("different epoch must change the key")
	}
	if key(JobSpec{Stateful: true}) == base {
		t.Error("stateful must change the key")
	}
	if key(JobSpec{Profiles: []string{"Old", "Sim1", "Sim2", "NoAction", "Headless"}}) != base {
		t.Error("explicit full profile set must equal the empty default")
	}
	a := key(JobSpec{Profiles: []string{"Sim2", "Sim1", "Sim1"}})
	b := key(JobSpec{Profiles: []string{"Sim1", "Sim2"}})
	if a != b {
		t.Error("profile order/duplicates must canonicalize away")
	}
	if a == base {
		t.Error("a two-profile subset must not share the full-set key")
	}
	if key(JobSpec{FaultProfile: "off"}) != base {
		t.Error(`fault_profile "off" must equal the empty default`)
	}
	if key(JobSpec{FaultProfile: "light"}) == base {
		t.Error("an active fault profile must change the key")
	}
}

// TestFaultProfileJob runs a job with fault injection enabled end to end:
// it must complete, and the vetting stage must report exclusions.
func TestFaultProfileJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := tinySpec(7)
	spec.FaultProfile = "light"
	v, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d", code)
	}
	v = pollDone(t, s, ts, v.ID)
	if v.State != StateDone {
		t.Fatalf("faulty job ended %q (err %q)", v.State, v.Error)
	}
	if v.Spec.FaultProfile != "light" {
		t.Errorf("spec echo lost the fault profile: %+v", v.Spec)
	}
	if v.Summary.ExcludedPages == 0 {
		t.Error("light faults produced no vetting exclusions")
	}
}

// TestJobWithNoVettedPage: a heavy-fault job whose vetting keeps no page
// (seed 539 at this size) is done, not failed, and serves its report.
func TestJobWithNoVettedPage(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Seed: 539, Sites: 5, PagesPerSite: 3, FaultProfile: "heavy", Workers: 1, SiteWorkers: 1}
	v, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d", code)
	}
	if v = pollDone(t, s, ts, v.ID); v.State != StateDone {
		t.Fatalf("job ended %q (err %q)", v.State, v.Error)
	}
	if v.Summary.VettedPages != 0 {
		t.Fatalf("%d vetted pages, want none (pick another seed)", v.Summary.VettedPages)
	}
	if code, rep := get(t, ts.URL+"/v1/jobs/"+v.ID+"/report"); code != http.StatusOK || !bytes.Contains(rep, []byte("== Crawl summary")) {
		t.Fatalf("report fetch: code %d, %d bytes", code, len(rep))
	}
}

// TestHealthz reports queue stats.
func TestHealthz(t *testing.T) {
	s := New(Config{Workers: 3, QueueDepth: 5})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := get(t, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("healthz code = %d", code)
	}
	var v struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != "ok" || v.Stats.Workers != 3 || v.Stats.QueueCap != 5 {
		t.Fatalf("healthz = %+v", v)
	}
}

// TestShutdownDrains submits work, shuts down, and verifies every
// accepted job reached a terminal state and the workers exited.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		j, err := s.Submit(tinySpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range ids {
		j, _ := s.Job(id)
		s.mu.Lock()
		st := j.state
		s.mu.Unlock()
		if st != StateDone {
			t.Errorf("job %s ended %q after drain", id, st)
		}
	}
	if _, err := s.Submit(tinySpec(9)); err != ErrDraining {
		t.Errorf("submit after shutdown = %v, want ErrDraining", err)
	}
}

// TestShutdownDeadlineCancelsRunning forces the drain deadline and
// expects the running job to be canceled rather than leaked.
func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := blockingServer(t, Config{Workers: 1}, release)
	j, err := s.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, j.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced shutdown = %v, want deadline exceeded", err)
	}
	select {
	case <-j.Done():
	case <-time.After(time.Second):
		t.Fatal("running job did not resolve after forced shutdown")
	}
	s.mu.Lock()
	st := j.state
	s.mu.Unlock()
	if st != StateCanceled {
		t.Fatalf("job after forced shutdown = %q", st)
	}
}

// TestJobListOrder lists jobs in submission order.
func TestJobListOrder(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var want []string
	for seed := int64(1); seed <= 3; seed++ {
		j, err := s.Submit(tinySpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, j.ID)
	}
	code, body := get(t, ts.URL+"/v1/jobs")
	if code != 200 {
		t.Fatalf("list code = %d", code)
	}
	var v struct {
		Jobs []jobJSON `json:"jobs"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Jobs) != len(want) {
		t.Fatalf("list has %d jobs, want %d", len(v.Jobs), len(want))
	}
	for i, j := range v.Jobs {
		if j.ID != want[i] {
			t.Fatalf("list order %v, want %v", v.Jobs, want)
		}
	}
}

// TestLRUEviction keeps the cache bounded.
func TestLRUEviction(t *testing.T) {
	c := newResultCache(2)
	r1, r2, r3 := &result{}, &result{}, &result{}
	c.put("a", r1)
	c.put("b", r2)
	if _, ok := c.get("a"); !ok { // refresh a → b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", r3)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if c.len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.len())
	}
	if got, _ := c.get("c"); got != r3 {
		t.Fatal("c lookup wrong")
	}
}
