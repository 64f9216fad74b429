package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"webmeasure"
	"webmeasure/internal/colstore"
	"webmeasure/internal/crawler"
	"webmeasure/internal/dataset"
	"webmeasure/internal/metrics"
	"webmeasure/internal/service"
)

// The service workload: one closed-loop caller submits jobs to an
// in-process job server over loopback HTTP, waits for each job, and
// downloads its report and dataset. It is the only workload on the service
// queue, result cache and HTTP artifacts, on the write side of
// dataset/colstore, and on the crawler's retry path. One caller, not one
// per core: on a 2-vCPU VM, two callers kept both cores busy and ten runs
// spread by 20-25% in p50 and CPU per op (one caller: 10-13%), because a
// shared VM's second core is not always free.
const (
	serviceWarmup = 8
	// servicePeriod is the length of the spec pattern: fault profile,
	// dataset format, and site count cycle through every combination in
	// this many fresh specs, and every fourth request is a repeat.
	servicePeriod = 16
	serviceRate   = 8.0 // ops/s; sizes the op count
)

// svcOp is one request of the spec stream.
type svcOp struct {
	spec service.JobSpec
	// repeatOf is the index of the earlier request whose spec this one
	// repeats (-1 for a fresh spec).
	repeatOf int
}

// serviceSpec is the i-th fresh spec of a stream: every 4th uses heavy
// faults, half ask for the columnar dataset, and the site count alternates
// between 10 and 5 every 8 specs.
func serviceSpec(seed int64, stream string, f int) service.JobSpec {
	spec := service.JobSpec{
		Seed:         deriveSeed(seed, stream, f),
		Sites:        10,
		PagesPerSite: 3,
		Workers:      1,
		SiteWorkers:  1,
	}
	if f%4 == 0 {
		spec.FaultProfile = "heavy"
	}
	if (f+f/4)%2 == 0 {
		spec.DatasetFormat = "col"
	}
	if (f/8)%2 == 1 {
		spec.Sites = 5
	}
	return spec
}

// serviceOps generates n requests: every 4th repeats one of the three
// fresh requests of the previous group of four (chosen from the seed), the
// rest are fresh.
func serviceOps(seed int64, stream string, n int) []svcOp {
	ops := make([]svcOp, n)
	fresh := 0
	for i := range ops {
		if i%4 == 3 && i >= 7 {
			j := i - 5 - int(mix64(uint64(seed)^uint64(i))%3)
			ops[i] = svcOp{spec: ops[j].spec, repeatOf: j}
			continue
		}
		ops[i] = svcOp{spec: serviceSpec(seed, stream, fresh), repeatOf: -1}
		fresh++
	}
	return ops
}

// runLog records every pipeline run a server makes, through the
// service.Config.Runner hook.
type runLog struct {
	mu   sync.Mutex
	runs []runRecord
	// onStart, if set, runs first in every call (on the server's
	// goroutine); returning an error aborts the run.
	onStart func(cfg webmeasure.Config) error
}

type runRecord struct {
	cfg        webmeasure.Config
	start, end time.Time
	stats      crawler.Stats
}

func (l *runLog) runner(ctx context.Context, cfg webmeasure.Config) (*webmeasure.Results, error) {
	start := time.Now()
	if l.onStart != nil {
		if err := l.onStart(cfg); err != nil {
			return nil, err
		}
	}
	res, err := webmeasure.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	rec := runRecord{cfg: cfg, start: start, end: time.Now(), stats: res.CrawlStats()}
	l.mu.Lock()
	l.runs = append(l.runs, rec)
	l.mu.Unlock()
	return res, nil
}

func (l *runLog) records() []runRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]runRecord(nil), l.runs...)
}

// liveServer is a job server listening on loopback.
type liveServer struct {
	srv    *service.Server
	reg    *metrics.Registry
	log    *runLog
	http   *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

// startServer starts a server with cmd/serve's defaults: two job workers,
// a 16-deep queue, a 64-entry result cache, autoscaling off.
func startServer(log *runLog, monitor *service.MonitorConfig) (*liveServer, error) {
	reg := metrics.New()
	srv := service.New(service.Config{
		Workers:    2,
		QueueDepth: 16,
		CacheSize:  64,
		Metrics:    reg,
		Runner:     log.runner,
		Monitor:    monitor,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	ls := &liveServer{
		srv:    srv,
		reg:    reg,
		log:    log,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{DisableCompression: true}},
	}
	go func() {
		defer close(ls.served)
		_ = ls.http.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return ls, nil
}

// close stops the HTTP listener and drains the job server.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	herr := ls.http.Shutdown(ctx)
	<-ls.served
	ls.client.CloseIdleConnections()
	return errors.Join(herr, ls.srv.Shutdown(ctx))
}

// svcResult is what one request observed.
type svcResult struct {
	latencyMS   float64
	err         error
	status      jobStatus
	reportCRC   uint32
	datasetCRC  uint32
	bytes       int
	postStart   time.Time
	getStart    time.Time // first artifact request
	artifactEnd time.Time
}

// jobStatus is the part of the job-status JSON the harness reads.
type jobStatus struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	FinishedAt  *time.Time `json:"finished_at"`
	Summary     *struct {
		Visits int `json:"Visits"`
	} `json:"summary"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// callerBufs are the caller's reusable response buffers.
type callerBufs struct{ body, report, dataset bytes.Buffer }

// do runs one request: submit, wait for the job through the Go API, and
// download the report and the dataset artifact. The latency ends with the
// last artifact byte; the status read and checks that follow are outside
// it.
func (ls *liveServer) do(op svcOp, b *callerBufs) svcResult {
	var r svcResult
	r.postStart = time.Now()
	body, err := json.Marshal(op.spec)
	if err != nil {
		r.err = err
		return r
	}
	b.body.Reset()
	code, err := ls.request(http.MethodPost, "/v1/jobs", bytes.NewReader(body), &b.body)
	if err != nil {
		r.err = err
		return r
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		r.err = fmt.Errorf("%w: submit answered %d: %s", errCheck, code, strings.TrimSpace(b.body.String()))
		return r
	}
	var st jobStatus
	if err := json.Unmarshal(b.body.Bytes(), &st); err != nil {
		r.err = fmt.Errorf("submit response: %w", err)
		return r
	}
	job, ok := ls.srv.Job(st.ID)
	if !ok {
		r.err = fmt.Errorf("%w: job %s unknown to the server", errCheck, st.ID)
		return r
	}
	<-job.Done()
	r.getStart = time.Now()
	datasetPath := "dataset.jsonl"
	if op.spec.DatasetFormat == "col" {
		datasetPath = "dataset.col"
	}
	b.report.Reset()
	b.dataset.Reset()
	for _, a := range []struct {
		path string
		buf  *bytes.Buffer
	}{{"report", &b.report}, {datasetPath, &b.dataset}} {
		code, err := ls.request(http.MethodGet, "/v1/jobs/"+st.ID+"/"+a.path, nil, a.buf)
		if err != nil {
			r.err = err
			return r
		}
		if code != http.StatusOK {
			r.err = fmt.Errorf("%w: GET %s answered %d", errCheck, a.path, code)
			return r
		}
	}
	r.artifactEnd = time.Now()
	r.latencyMS = float64(r.artifactEnd.Sub(r.postStart)) / float64(time.Millisecond)

	b.body.Reset()
	code, err = ls.request(http.MethodGet, "/v1/jobs/"+st.ID, nil, &b.body)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%w: status answered %d", errCheck, code)
	}
	if err == nil {
		err = json.Unmarshal(b.body.Bytes(), &r.status)
	}
	if err != nil {
		r.err = err
		return r
	}
	r.reportCRC = crc32.Checksum(b.report.Bytes(), crcTable)
	r.datasetCRC = crc32.Checksum(b.dataset.Bytes(), crcTable)
	r.bytes = b.report.Len() + b.dataset.Len()
	r.err = checkArtifacts(r.status, op.spec.DatasetFormat == "col", b.report.Bytes(), b.dataset.Bytes())
	return r
}

// checkArtifacts checks one finished job's downloads: the report carries
// the crawl summary and the tables, and the dataset holds the summary's
// visit count in the requested format.
func checkArtifacts(st jobStatus, col bool, report, ds []byte) error {
	if st.State != "done" || st.Summary == nil {
		return fmt.Errorf("%w: job state %q", errCheck, st.State)
	}
	if !bytes.Contains(report, []byte("== Crawl summary")) || !bytes.Contains(report, []byte("== Table 1:")) {
		return fmt.Errorf("%w: report lacks the crawl summary or table headers", errCheck)
	}
	visits := bytes.Count(ds, []byte{'\n'})
	if col {
		if !bytes.HasPrefix(ds, []byte(colstore.Magic)) {
			return fmt.Errorf("%w: dataset.col lacks the columnar magic", errCheck)
		}
		rd, err := colstore.OpenReader(bytes.NewReader(ds), int64(len(ds)))
		if err != nil {
			return fmt.Errorf("%w: dataset.col: %v", errCheck, err)
		}
		visits = rd.Index().TotalVisits()
	} else if len(ds) == 0 || ds[0] != '{' {
		return fmt.Errorf("%w: dataset.jsonl does not start with a JSON object", errCheck)
	}
	if visits != st.Summary.Visits {
		return fmt.Errorf("%w: dataset holds %d visits, summary says %d", errCheck, visits, st.Summary.Visits)
	}
	return nil
}

// request sends one HTTP request and reads the whole response into out.
func (ls *liveServer) request(method, path string, body io.Reader, out *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, ls.base+path, body)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// drive runs ops through the server in a closed loop, each request sent
// when the previous one completed, and returns each op's result.
func (ls *liveServer) drive(ops []svcOp) []svcResult {
	res := make([]svcResult, len(ops))
	var b callerBufs
	for i, op := range ops {
		res[i] = ls.do(op, &b)
	}
	return res
}

// checkRepeats fails a repeated request whose artifacts differ from the
// first response to the same spec.
func checkRepeats(ops []svcOp, res []svcResult) {
	for i, op := range ops {
		j := op.repeatOf
		if j < 0 || res[i].err != nil || res[j].err != nil {
			continue
		}
		if res[i].reportCRC != res[j].reportCRC || res[i].datasetCRC != res[j].datasetCRC {
			res[i].err = fmt.Errorf("%w: repeat of request %d served different bytes", errCheck, j)
		}
	}
}

func runService(o options) (*result, error) {
	warm := make([]svcOp, serviceWarmup)
	if o.smoke {
		warm = warm[:2]
	}
	for i := range warm {
		warm[i] = svcOp{spec: serviceSpec(o.seed, "service-warmup", i), repeatOf: -1}
	}
	var ls *liveServer
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		if ls != nil {
			if err := ls.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		ls, err = startServer(&runLog{}, nil)
		if err != nil {
			return nil, err
		}
		for _, w := range ls.drive(warm) {
			if w.err != nil && !errors.Is(w.err, errCheck) {
				_ = ls.close()
				return nil, fmt.Errorf("warm-up: %w", w.err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	run := &serviceRun{
		ls:         ls,
		ops:        serviceOps(o.seed, "service", opCount(o, serviceRate, servicePeriod)),
		warmRuns:   len(ls.log.records()),
		warmHits:   ls.reg.Counter("service.cache.hits").Value(),
		warmMisses: ls.reg.Counter("service.cache.misses").Value(),
	}
	if o.trace {
		run.heapBefore = liveHeapMB() // retained-state probe, outside the timed phase
	}
	before := readUsage()
	run.res = ls.drive(run.ops)
	run.phase.add(before, readUsage())
	checkRepeats(run.ops, run.res)
	var tally outcome
	for i, r := range run.res {
		run.phase.latenciesMS = append(run.phase.latenciesMS, r.latencyMS)
		tally.op(i, r.err)
	}
	hits, misses := run.cacheSplit()
	fmt.Fprintf(o.stderr, "benchmark: service: %d requests ran %d jobs, %d served from the cache\n", len(run.ops), misses, hits)
	m := endToEnd(setups, run.phase)
	var traceErr error
	if o.trace {
		m, traceErr = traceService(context.Background(), o, run, &tally)
	}
	if err := errors.Join(traceErr, ls.close()); err != nil {
		return nil, err
	}
	reportErrors(o, tally)
	return tally.result(m), nil
}

// serviceRun is the service workload's timed phase and what the traced
// run needs to know about the set-up before it.
type serviceRun struct {
	ls    *liveServer
	ops   []svcOp
	res   []svcResult
	phase timedPhase
	// warmRuns, warmHits and warmMisses are the Runner calls and cache
	// counters the set-up left behind; heapBefore is the live heap before
	// the timed phase (traced runs only).
	warmRuns             int
	warmHits, warmMisses int64
	heapBefore           float64
}

// cacheSplit returns the timed phase's result-cache hits and misses.
func (r *serviceRun) cacheSplit() (hits, misses int64) {
	return r.ls.reg.Counter("service.cache.hits").Value() - r.warmHits,
		r.ls.reg.Counter("service.cache.misses").Value() - r.warmMisses
}

// traceService records the timed requests' spans from the client side and
// the job-status timestamps, then replays the first requests' jobs.
func traceService(ctx context.Context, o options, run *serviceRun, t *outcome) (map[string]metric, error) {
	ls, ops, res := run.ls, run.ops, run.res
	extra := runtimeMetrics(run.phase, len(ops))
	extra["service.retained_mb_per_job"] = (extra["runtime.heap_live_mb"] - run.heapBefore) / float64(len(ops))
	if hits, misses := run.cacheSplit(); hits+misses > 0 {
		extra["service.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	var artifactBytes, fresh int
	tr := newTracer(o.start)
	for i, r := range res {
		artifactBytes += r.bytes
		if ops[i].repeatOf < 0 {
			fresh++
		}
		st := r.status
		if r.err != nil || st.StartedAt == nil || st.FinishedAt == nil {
			continue
		}
		id := tr.record(i+1, 0, "service.Op", r.postStart, r.artifactEnd)
		tr.record(i+1, id, "service.QueueWait", st.SubmittedAt, *st.StartedAt)
		tr.record(i+1, id, "service.Run", *st.StartedAt, *st.FinishedAt)
		tr.record(i+1, id, "service.GetArtifacts", r.getStart, r.artifactEnd)
	}
	extra["service.artifact_mb"] = float64(artifactBytes) / mb / float64(len(ops))
	extra["input.distinct_specs"] = float64(fresh)

	runs := make(map[int64]runRecord)
	for _, rec := range ls.log.records()[run.warmRuns:] {
		if _, ok := runs[rec.cfg.Seed]; !ok {
			runs[rec.cfg.Seed] = rec
		}
	}
	rp := newReplayer(ctx, tr)
	n := replayCount(o, len(ops))
	err := rp.replaying(func() error {
		var out renderBufs
		datasets := make(map[int]*dataset.Dataset)
		for i := 0; i < n; i++ {
			err := rp.replayJob(i, ops[i], res, runs, datasets, &out)
			rp.endOp()
			if err != nil {
				if !errorsIsCheck(err) {
					return err
				}
				t.fail(i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := tr.write(spanFile(o)); err != nil {
		return nil, err
	}
	return layerMetrics(tr, rp, n, len(ops), extra), nil
}

// replayJob replays request i: a fresh spec's whole job (run, render,
// summary) plus the dataset download's encoding; a repeat's download
// encoding only, as a cache hit serves stored results.
func (rp *replayer) replayJob(i int, op svcOp, res []svcResult, runs map[int64]runRecord, datasets map[int]*dataset.Dataset, out *renderBufs) error {
	id := i + 1
	root := rp.tr.begin(id, 0, "replay.Job")
	defer rp.tr.end(root)
	src := i
	if op.repeatOf >= 0 {
		src = op.repeatOf
	}
	ds := datasets[src]
	if ds == nil {
		rec, ok := runs[op.spec.Seed]
		if !ok {
			return fmt.Errorf("%w: no run recorded for request %d", errCheck, i)
		}
		r, stats, err := rp.replayRun(id, root, rec.cfg)
		if err != nil {
			return err
		}
		if stats != rec.stats {
			return fmt.Errorf("%w: replayed crawl stats %+v differ from the job's %+v", errCheck, stats, rec.stats)
		}
		if err := rp.render(id, root, r.Analysis(), r.RankBoundaries(), out); err != nil {
			return err
		}
		if crc32.Checksum(out.report.Bytes(), crcTable) != res[i].reportCRC {
			return fmt.Errorf("%w: replayed report differs from the served one", errCheck)
		}
		_ = rp.tr.call(id, root, "webmeasure.Results.Summary", func() error { r.Summary(); return nil })
		ds = r.Dataset()
		datasets[src] = ds
		for k := range datasets {
			if k < i-8 {
				delete(datasets, k)
			}
		}
	}
	var buf bytes.Buffer
	var err error
	if op.spec.DatasetFormat == "col" {
		err = rp.tr.call(id, root, "dataset.Dataset.WriteCol", func() error { return ds.WriteCol(&buf) })
	} else {
		err = rp.tr.call(id, root, "dataset.Dataset.StreamJSONL", func() error { return ds.StreamJSONL(&buf, 256) })
	}
	if err != nil {
		return err
	}
	if crc32.Checksum(buf.Bytes(), crcTable) != res[i].datasetCRC {
		return fmt.Errorf("%w: replayed dataset artifact differs from the served one", errCheck)
	}
	return nil
}
