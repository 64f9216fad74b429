// Package service turns the one-shot measurement pipeline into
// measurement-as-a-service: a long-running job server that accepts
// experiment specs over HTTP, runs them on a fixed pool of Config.Workers
// goroutines (each job is a full crawl + analysis through the webmeasure
// facade), caches results in an LRU keyed by the canonicalized spec, and
// serves the rendered artifacts back. It is the serving layer the ROADMAP's
// production system needs — the paper's pipeline is rerun continuously
// with varying configurations (multi-vantage-point and longitudinal
// studies), exactly the workload a queue with a deterministic result
// cache amortizes.
//
// Lifecycle: POST /v1/jobs enqueues (or answers straight from cache),
// workers drain the queue, GET /v1/jobs/{id} polls, the artifact routes
// download results, DELETE cancels via per-job context. A full queue
// pushes back with 429 + Retry-After (from the recent mean job duration
// over the workers) instead of buffering unboundedly, and Shutdown stops
// intake and drains accepted jobs before returning.
package service

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"webmeasure"
	"webmeasure/internal/core"
	"webmeasure/internal/drift"
	"webmeasure/internal/metrics"
	"webmeasure/internal/trace"
)

// Limits bounds what a single job may ask for, so one request cannot
// exhaust the server.
type Limits struct {
	MaxSites        int
	MaxPagesPerSite int
	// MaxShards bounds a job's shard count (default 16).
	MaxShards int
}

// Config parameterizes the server. The zero value is completed by New.
type Config struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueDepth bounds the jobs waiting to run; submissions beyond it
	// are rejected with 429 (default 16).
	QueueDepth int
	// CacheSize bounds the LRU result cache entries (default 64;
	// negative disables caching).
	CacheSize int
	// Limits guards per-job resource demands (defaults: 2000 sites, 100
	// pages per site).
	Limits Limits
	// Metrics receives service counters plus every job's crawl/analysis
	// instruments (default: a fresh registry; exposed at /metrics).
	Metrics *metrics.Registry
	// Logger receives structured job-lifecycle records (submitted,
	// started, finished) with job IDs and durations. nil discards them.
	Logger *slog.Logger
	// Runner overrides the job executor — tests and benchmarks stub the
	// pipeline here. nil runs webmeasure.Run.
	Runner func(ctx context.Context, cfg webmeasure.Config) (*webmeasure.Results, error)
	// ShardWorkers lists base URLs of peer servers a coordinator job fans
	// shard jobs out to (e.g. "http://10.0.0.2:8080"). Empty runs every
	// shard in-process — correct, just not distributed.
	ShardWorkers []string
	// ShardAttempts bounds how many workers a shard dispatch tries before
	// falling back to running the shard locally (default 3, clamped to the
	// worker count).
	ShardAttempts int
	// ShardPoll is the coordinator's polling interval while a remote shard
	// job runs (default 150ms).
	ShardPoll time.Duration
	// Monitor, if non-nil, starts the longitudinal drift monitor: a
	// background loop that reruns Monitor.Spec for a sequence of epochs,
	// persists per-epoch baselines to Monitor.StateDir, diffs adjacent
	// and pinned epochs, and evaluates alert rules on each delta.
	Monitor *MonitorConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	if c.Limits.MaxSites <= 0 {
		c.Limits.MaxSites = 2000
	}
	if c.Limits.MaxPagesPerSite <= 0 {
		c.Limits.MaxPagesPerSite = 100
	}
	if c.Limits.MaxShards <= 0 {
		c.Limits.MaxShards = 16
	}
	if c.ShardAttempts <= 0 {
		c.ShardAttempts = 3
	}
	if c.ShardPoll <= 0 {
		c.ShardPoll = 150 * time.Millisecond
	}
	if c.Metrics == nil {
		c.Metrics = metrics.New()
	}
	if c.Logger == nil {
		c.Logger = trace.DiscardLogger()
	}
	return c
}

// traceRingSize bounds the /debug/traces recent-traces listing.
const traceRingSize = 32

// jobWindow is how many recent job durations the 429 Retry-After
// estimate averages: a few seconds of history under load.
const jobWindow = 128

// traceEntry is one row of the /debug/traces listing: a finished job
// that ran with tracing on.
type traceEntry struct {
	JobID       string    `json:"job_id"`
	TraceCount  int       `json:"trace_count"`
	SpanCount   int       `json:"span_count"`
	SampleEvery int       `json:"sample_every"`
	FinishedAt  time.Time `json:"finished_at"`
	URL         string    `json:"url"`
}

// Server runs measurement jobs. Create with New, serve its Handler, and
// call Shutdown to drain.
type Server struct {
	cfg Config
	reg *metrics.Registry
	log *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	cache    *resultCache
	queue    chan *Job
	draining bool
	seq      int64
	// traces is the recent-traces ring for /debug/traces: the last
	// traceRingSize finished jobs that ran with tracing on, newest first.
	traces []traceEntry
	// jobMS is a ring of the last jobWindow job durations in
	// milliseconds; jobsTimed counts every duration ever recorded.
	jobMS     [jobWindow]float64
	jobsTimed int

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup
	// stopping closes when Shutdown begins; the monitor loop ends on it.
	stopping chan struct{}

	// shard is the coordinator's HTTP client for remote shard workers
	// (nil when Config.ShardWorkers is empty).
	shard *shardClient

	// monitor is the drift-monitor state (nil when monitor mode is off);
	// monitorDone closes when the monitor loop exits.
	monitor     *monitorState
	monitorDone chan struct{}

	// started anchors the uptime reported by /healthz and /metrics.
	started time.Time

	// counters, bound once so the hot paths skip registry lookups
	mSubmitted, mCompleted, mFailed, mCanceled   *metrics.Counter
	mRejected, mCacheHits, mCacheMisses          *metrics.Counter
	mShardRemote, mShardRetries, mShardFallbacks *metrics.Counter
	mJobMS, mQueueMS                             *metrics.Histogram
	// mResultBytes sums the artifact bytes of every job that finished by
	// running; cache hits share their source's result and add nothing.
	mResultBytes *metrics.Gauge
}

// New creates the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Metrics,
		log:       cfg.Logger,
		jobs:      make(map[string]*Job),
		cache:     newResultCache(cfg.CacheSize),
		queue:     make(chan *Job, cfg.QueueDepth),
		baseCtx:   ctx,
		cancelAll: cancel,
		stopping:  make(chan struct{}),
		started:   time.Now(),

		mSubmitted:      cfg.Metrics.Counter("service.jobs.submitted"),
		mCompleted:      cfg.Metrics.Counter("service.jobs.completed"),
		mFailed:         cfg.Metrics.Counter("service.jobs.failed"),
		mCanceled:       cfg.Metrics.Counter("service.jobs.canceled"),
		mRejected:       cfg.Metrics.Counter("service.jobs.rejected"),
		mCacheHits:      cfg.Metrics.Counter("service.cache.hits"),
		mCacheMisses:    cfg.Metrics.Counter("service.cache.misses"),
		mShardRemote:    cfg.Metrics.Counter("service.shard.remote"),
		mShardRetries:   cfg.Metrics.Counter("service.shard.dispatch_retries"),
		mShardFallbacks: cfg.Metrics.Counter("service.shard.local_fallbacks"),
		mJobMS:          cfg.Metrics.Histogram("service.job_ms"),
		mQueueMS:        cfg.Metrics.Histogram("service.queue_wait_ms"),
		mResultBytes:    cfg.Metrics.Gauge("service.results.bytes"),
	}
	if len(cfg.ShardWorkers) > 0 {
		s.shard = newShardClient(cfg.ShardWorkers, cfg.ShardAttempts, cfg.ShardPoll, cfg.Logger, s.mShardRetries)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.Monitor != nil {
		mc := cfg.Monitor.withDefaults()
		eng, engErr := drift.NewEngine(mc.Rules)
		if engErr != nil {
			// The loop aborts on rulesErr before running any epoch; the
			// fallback engine only keeps status() safe to call.
			eng, _ = drift.NewEngine(drift.DefaultRules())
		}
		s.monitor = &monitorState{
			cfg:          mc,
			engine:       eng,
			rulesErr:     engErr,
			currentEpoch: -1,
			lastEpoch:    -1,
		}
		s.monitorDone = make(chan struct{})
		s.wg.Add(1)
		go s.monitorLoop()
	}
	return s
}

// Metrics exposes the server's registry (the /metrics source).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// ErrQueueFull is returned by Submit when the queue has no room; HTTP
// maps it to 429 + Retry-After.
var ErrQueueFull = fmt.Errorf("service: job queue is full")

// ErrDraining is returned by Submit after Shutdown began; HTTP maps it
// to 503.
var ErrDraining = fmt.Errorf("service: server is shutting down")

// Submit validates and enqueues a job (or resolves it instantly from the
// result cache) and returns it. The returned Job must only be inspected
// through server methods; its Done channel closes when it finishes.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	norm, err := spec.normalize(s.cfg.Limits)
	if err != nil {
		return nil, fmt.Errorf("service: invalid spec: %w", err)
	}
	key := norm.cacheKey()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.seq++
	job := &Job{
		ID:        fmt.Sprintf("j%06d", s.seq),
		Spec:      norm,
		key:       key,
		submitted: time.Now(),
		startedCh: make(chan struct{}),
		done:      make(chan struct{}),
	}
	s.mSubmitted.Inc()
	if res, ok := s.cache.get(key); ok {
		// Deterministic hit: finish the job immediately with the cached
		// artifacts, never touching the queue.
		s.mCacheHits.Inc()
		job.state = StateDone
		job.cacheHit = true
		job.started = job.submitted
		job.finished = time.Now()
		job.res = res
		job.markStarted()
		close(job.done)
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		s.log.Info("job resolved from cache", "job", job.ID, "seed", norm.Seed, "sites", norm.Sites)
		return job, nil
	}
	job.state = StateQueued
	select {
	case s.queue <- job:
	default:
		s.seq-- // job was never admitted
		s.mRejected.Inc()
		s.log.Warn("job rejected: queue full", "queue_depth", s.cfg.QueueDepth)
		return nil, ErrQueueFull
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.log.Info("job queued", "job", job.ID, "seed", norm.Seed, "sites", norm.Sites,
		"fault_profile", norm.FaultProfile, "trace_sample", norm.TraceSample)
	return job, nil
}

// Job returns a submitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a job: a queued job is marked canceled and skipped when
// popped, a running job has its context canceled. Canceling a finished
// job is a no-op. The second return is false when the ID is unknown.
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.err = "canceled before start"
		j.finished = time.Now()
		s.mCanceled.Inc()
		j.markStarted()
		close(j.done)
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
		// runJob observes the context error and finishes the job.
	}
	return j, true
}

// Stats is a point-in-time view of the server for /healthz.
type Stats struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Finished  int `json:"finished"`
	CacheSize int `json:"cache_size"`
	Workers   int `json:"workers"`
	QueueCap  int `json:"queue_capacity"`
}

// Stats summarizes the server state.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		CacheSize: s.cache.len(),
		Workers:   s.cfg.Workers,
		QueueCap:  s.cfg.QueueDepth,
	}
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		default:
			st.Finished++
		}
	}
	return st
}

// worker runs queued jobs until Shutdown closes the queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one queued job end to end: re-check the cache (an
// identical job may have finished while this one waited), run the
// measurement under a per-job context, render the artifacts, and publish
// the terminal state.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	if job.state != StateQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	if res, ok := s.cache.get(job.key); ok {
		s.mCacheHits.Inc()
		job.state = StateDone
		job.cacheHit = true
		job.started = time.Now()
		job.finished = job.started
		job.res = res
		job.markStarted()
		close(job.done)
		s.mu.Unlock()
		return
	}
	s.mCacheMisses.Inc()
	ctx, cancel := context.WithCancel(s.baseCtx)
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	job.markStarted()
	waitMS := float64(job.started.Sub(job.submitted)) / float64(time.Millisecond)
	s.mQueueMS.Observe(waitMS)
	s.mu.Unlock()
	defer cancel()

	s.log.Info("job started", "job", job.ID, "queue_wait_ms", waitMS)
	res, err := s.execute(ctx, job.Spec)

	s.mu.Lock()
	defer s.mu.Unlock()
	job.finished = time.Now()
	job.cancel = nil
	durMS := float64(job.finished.Sub(job.started)) / float64(time.Millisecond)
	s.mJobMS.Observe(durMS)
	s.jobMS[s.jobsTimed%jobWindow] = durMS
	s.jobsTimed++
	switch {
	case err == nil:
		job.state = StateDone
		job.res = res
		s.cache.put(job.key, res)
		s.mCompleted.Inc()
		s.mResultBytes.Add(res.size())
		if res.traceChrome != nil {
			s.traces = append([]traceEntry{{
				JobID:       job.ID,
				TraceCount:  res.traceCount,
				SpanCount:   res.spanCount,
				SampleEvery: job.Spec.TraceSample,
				FinishedAt:  job.finished,
				URL:         "/v1/jobs/" + job.ID + "/trace.json",
			}}, s.traces...)
			if len(s.traces) > traceRingSize {
				s.traces = s.traces[:traceRingSize]
			}
		}
		s.log.Info("job done", "job", job.ID, "duration_ms", durMS,
			"visits", res.summary.Visits, "trace_spans", res.spanCount)
	case ctx.Err() != nil:
		job.state = StateCanceled
		job.err = ctx.Err().Error()
		s.mCanceled.Inc()
		s.log.Warn("job canceled", "job", job.ID, "duration_ms", durMS)
	default:
		job.state = StateFailed
		job.err = err.Error()
		s.mFailed.Inc()
		s.log.Error("job failed", "job", job.ID, "duration_ms", durMS, "error", err.Error())
	}
	close(job.done)
}

// retryAfterSeconds estimates when the full queue will have room again,
// from the drain rate: the mean of the recent job durations over
// Config.Workers, rounded up to whole seconds and clamped to [1s, 60s];
// with no finished job yet there is no rate, so 1s. It is asked only when
// the queue is full, and then every worker is busy, since an idle worker
// takes the next queued job at once.
func (s *Server) retryAfterSeconds() int {
	s.mu.Lock()
	n := min(s.jobsTimed, jobWindow)
	var sum float64
	for _, ms := range s.jobMS[:n] {
		sum += ms
	}
	s.mu.Unlock()
	if n == 0 {
		return 1
	}
	secs := int(math.Ceil(sum / float64(n) / float64(s.cfg.Workers) / 1000))
	return max(1, min(secs, 60))
}

// execute runs the measurement and renders every artifact to bytes. When
// the spec asks for tracing, a per-job tracer seeded from the spec rides
// the config through crawl and analysis, and the finished trace is
// rendered alongside the other artifacts (so cache hits replay the exact
// trace bytes too). Sharded specs route to the shard worker or the
// coordinator instead.
func (s *Server) execute(ctx context.Context, spec JobSpec) (*result, error) {
	switch {
	case spec.Shards > 1 && spec.Shard > 0:
		return s.executeShard(ctx, spec)
	case spec.Shards > 1:
		return s.executeCoordinator(ctx, spec)
	}
	runner := s.cfg.Runner
	if runner == nil {
		runner = webmeasure.Run
	}
	cfg := spec.config(s.reg)
	var tracer *trace.Tracer
	if spec.TraceSample > 0 {
		tracer = trace.New(trace.Options{
			Seed:        spec.Seed,
			SampleEvery: spec.TraceSample,
			Metrics:     s.reg,
		})
		cfg.Tracer = tracer
	}
	r, err := runner(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return render(r, tracer)
}

// render turns finished Results into a job's artifacts: report, JSON,
// CSV and summary, plus the trace exports when tracer is non-nil.
func render(r *webmeasure.Results, tracer *trace.Tracer) (*result, error) {
	var rep, js, csv bytes.Buffer
	r.WriteReport(&rep)
	if err := r.WriteJSON(&js); err != nil {
		return nil, fmt.Errorf("render json: %w", err)
	}
	if err := r.WriteCSV(&csv); err != nil {
		return nil, fmt.Errorf("render csv: %w", err)
	}
	col, err := encodeDataset(r)
	if err != nil {
		return nil, err
	}
	res := &result{
		report:     rep.Bytes(),
		json:       js.Bytes(),
		csv:        csv.Bytes(),
		datasetCol: col,
		summary:    r.Summary(),
	}
	if tracer != nil {
		var chrome, jsonl bytes.Buffer
		if err := tracer.WriteChromeTrace(&chrome); err != nil {
			return nil, fmt.Errorf("render trace: %w", err)
		}
		if err := tracer.WriteJSONL(&jsonl); err != nil {
			return nil, fmt.Errorf("render trace jsonl: %w", err)
		}
		res.traceChrome = chrome.Bytes()
		res.traceJSONL = jsonl.Bytes()
		res.traceCount = tracer.TraceCount()
		res.spanCount = tracer.SpanCount()
	}
	return res, nil
}

// encodeDataset returns an exact-size copy of the run's columnar dataset:
// the only form of its visits a finished job keeps.
func encodeDataset(r *webmeasure.Results) ([]byte, error) {
	var col bytes.Buffer
	if err := r.WriteDatasetCol(&col); err != nil {
		return nil, fmt.Errorf("encode dataset: %w", err)
	}
	return bytes.Clone(col.Bytes()), nil
}

// executeShard runs one shard job: a shard-restricted measurement whose
// artifact is the encoded partial. The run uses a fresh registry and
// tracer — the partial carries both, and merging them into the shared
// registry is the coordinator's decision, not the worker's, so a local
// fallback never double-counts against a remote dispatch.
func (s *Server) executeShard(ctx context.Context, spec JobSpec) (*result, error) {
	runner := s.cfg.Runner
	if runner == nil {
		runner = webmeasure.Run
	}
	reg := metrics.New()
	cfg := spec.config(reg)
	var tracer *trace.Tracer
	if spec.TraceSample > 0 {
		tracer = trace.New(trace.Options{
			Seed:        spec.Seed,
			SampleEvery: spec.TraceSample,
			Metrics:     reg,
		})
		cfg.Tracer = tracer
	}
	r, err := runner(ctx, cfg)
	if err != nil {
		return nil, err
	}
	part, err := r.Partial()
	if err != nil {
		return nil, err
	}
	dump := reg.Dump()
	part.Metrics = &dump
	part.Traces = tracer.Export()
	wire, err := part.Encode()
	if err != nil {
		return nil, err
	}
	col, err := encodeDataset(r)
	if err != nil {
		return nil, err
	}
	// Shard summaries report only crawl-level facts: a slice can hold zero
	// vetted pages, where the tree-derived means are undefined.
	cs := r.Analysis().CrawlSummary()
	return &result{
		partial:    wire,
		datasetCol: col,
		summary: webmeasure.Summary{
			Sites:            cs.Sites,
			Pages:            cs.Pages,
			Visits:           cs.Visits,
			VettedPages:      cs.VettedPages,
			VettedShare:      cs.VettedShare,
			ExcludedPages:    cs.Vetting.Excluded(),
			ExcludedDegraded: cs.Vetting.ExcludedDegraded,
		},
	}, nil
}

// executeCoordinator fans one shard job per slice out — to the configured
// shard workers when present, in-process otherwise — then merges the
// partials: metrics dumps into the server registry, trace exports into
// one tracer, and the analysis partials into full Results whose rendered
// artifacts are byte-identical to an unsharded run of the same spec.
func (s *Server) executeCoordinator(ctx context.Context, spec JobSpec) (*result, error) {
	parts := make([]*core.Partial, spec.Shards)
	errs := make([]error, spec.Shards)
	var wg sync.WaitGroup
	for i := 1; i <= spec.Shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			parts[shard-1], errs[shard-1] = s.shardPartial(ctx, spec, shard)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, part := range parts {
		if part.Metrics != nil {
			if err := s.reg.Merge(*part.Metrics); err != nil {
				return nil, err
			}
		}
	}
	res, err := webmeasure.AssembleFromPartials(ctx, spec.config(s.reg), parts)
	if err != nil {
		return nil, err
	}
	var merged *trace.Tracer
	if spec.TraceSample > 0 {
		merged = trace.New(trace.Options{Seed: spec.Seed, SampleEvery: spec.TraceSample})
		for _, part := range parts {
			if err := merged.Import(part.Traces); err != nil {
				return nil, err
			}
		}
	}
	return render(res, merged)
}

// shardPartial obtains one shard's partial: result cache first, then the
// remote shard workers, then — when every dispatch attempt fails — an
// in-process run. Whatever produced the bytes, they land in the result
// cache under the shard job's own key, so a retried coordinator (or a
// second coordinator sharing slices) reuses them.
func (s *Server) shardPartial(ctx context.Context, spec JobSpec, shard int) (*core.Partial, error) {
	shardSpec := spec
	shardSpec.Shard = shard
	key := shardSpec.cacheKey()
	if res, ok := s.cacheGet(key); ok && res.partial != nil {
		s.mCacheHits.Inc()
		return core.DecodePartial(res.partial)
	}
	if s.shard != nil {
		wire, err := s.shard.fetchPartial(ctx, shardSpec)
		if err == nil {
			s.mShardRemote.Inc()
			s.cachePut(key, &result{partial: wire})
			return core.DecodePartial(wire)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s.mShardFallbacks.Inc()
		s.log.Warn("shard dispatch failed, running locally", "shard", shard, "error", err.Error())
	}
	res, err := s.executeShard(ctx, shardSpec)
	if err != nil {
		return nil, err
	}
	s.cachePut(key, res)
	return core.DecodePartial(res.partial)
}

// cacheGet / cachePut are the locked cache accessors for paths that do
// not already hold the server mutex.
func (s *Server) cacheGet(key string) (*result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.get(key)
}

func (s *Server) cachePut(key string, res *result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.put(key, res)
}

// Shutdown stops intake, drains the queued and running jobs, and waits
// for the workers to exit. If ctx expires first, every in-flight job's
// context is canceled and Shutdown still waits for the (now fast) drain
// before returning the ctx error — no goroutine outlives the call.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.log.Info("server draining")
		close(s.stopping)
		close(s.queue)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-done
		// Queued jobs the workers never reached must still resolve.
		s.failAbandoned()
		return ctx.Err()
	}
}

// failAbandoned marks jobs that were still queued when a forced shutdown
// emptied the pool.
func (s *Server) failAbandoned() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.state == StateQueued {
			j.state = StateCanceled
			j.err = "server shut down before the job ran"
			j.finished = time.Now()
			s.mCanceled.Inc()
			j.markStarted()
			close(j.done)
		}
	}
}
