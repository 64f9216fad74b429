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
	"io"
	"log/slog"
	"math"
	"sync"
	"time"

	"webmeasure"
	"webmeasure/internal/core"
	"webmeasure/internal/crawler"
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
	// Runner overrides the executor of whole-experiment jobs and monitor
	// epochs — tests and benchmarks stub the pipeline here. nil runs
	// webmeasure.Run. Shard jobs only crawl (webmeasure.CrawlPartial) and
	// coordinators only assemble, so neither calls it.
	Runner func(ctx context.Context, cfg webmeasure.Config) (*webmeasure.Results, error)
	// ShardWorkers lists base URLs of peer servers a coordinator job fans
	// shard jobs out to (e.g. "http://10.0.0.2:8080"). Empty runs every
	// shard in-process — correct, just not distributed. A dispatch tries
	// shardAttempts workers and polls each every shardPoll.
	ShardWorkers []string
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
		s.shard = newShardClient(cfg.ShardWorkers, cfg.Logger, s.mShardRetries)
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
	cfg.Tracer = spec.tracer(s.reg)
	r, err := runner(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return render(r, cfg.Tracer)
}

// render turns finished Results into a job's artifacts: report, JSON,
// CSV and summary, plus the trace exports when tracer is non-nil. Every
// artifact is an exact-size copy (exactBytes), so service.results.bytes
// counts what a finished job holds.
func render(r *webmeasure.Results, tracer *trace.Tracer) (*result, error) {
	res := &result{summary: r.Summary()}
	var err error
	keep := func(dst *[]byte, what string, write func(io.Writer) error) {
		if err != nil {
			return
		}
		if *dst, err = exactBytes(write); err != nil {
			err = fmt.Errorf("%s: %w", what, err)
		}
	}
	keep(&res.report, "render report", func(w io.Writer) error { r.WriteReport(w); return nil })
	keep(&res.json, "render json", r.WriteJSON)
	keep(&res.csv, "render csv", r.WriteCSV)
	keep(&res.datasetCol, "encode dataset", r.WriteDatasetCol)
	if tracer != nil {
		keep(&res.traceChrome, "render trace", tracer.WriteChromeTrace)
		keep(&res.traceJSONL, "render trace jsonl", tracer.WriteJSONL)
		res.traceCount = tracer.TraceCount()
		res.spanCount = tracer.SpanCount()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// scratchPool recycles the buffer exactBytes writes an artifact into
// before copying it out, so rendering does not regrow a buffer by
// doubling for every artifact of every job. A buffer is reset before it
// goes back and holds only bytes.
var scratchPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// exactBytes runs write against pooled scratch and returns an exact-size
// copy of what it wrote (len == cap): the only form of an artifact a
// finished job keeps.
func exactBytes(write func(io.Writer) error) ([]byte, error) {
	buf := scratchPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		scratchPool.Put(buf)
	}()
	if err := write(buf); err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// executeShard runs one shard job: a crawl of the shard's slice whose
// only artifact is the encoded partial, which carries the slice's visits
// columnar. The shard analyzes nothing, so its summary holds only crawl
// facts.
func (s *Server) executeShard(ctx context.Context, spec JobSpec) (*result, error) {
	part, stats, err := crawlShard(ctx, spec)
	if err != nil {
		return nil, err
	}
	wire, err := part.Encode()
	if err != nil {
		return nil, err
	}
	return &result{
		partial: append(make([]byte, 0, len(wire)), wire...), // exact size, as every artifact a job keeps
		summary: webmeasure.Summary{
			Sites:  stats.SitesVisited,
			Pages:  stats.PagesDiscovered,
			Visits: stats.VisitsTotal,
		},
	}, nil
}

// crawlShard crawls one shard's slice into a partial, with a fresh
// registry and tracer that the partial carries: merging them is the
// coordinator's decision, so a local fallback never double-counts.
func crawlShard(ctx context.Context, spec JobSpec) (*core.Partial, crawler.Stats, error) {
	reg := metrics.New()
	cfg := spec.config(reg)
	cfg.Tracer = spec.tracer(reg)
	return webmeasure.CrawlPartial(ctx, cfg)
}

// executeCoordinator fans one shard job per slice out — to the configured
// shard workers when present, in-process otherwise — then assembles the
// partials (webmeasure.AssembleFromPartials) into the server registry and
// the job's tracer, whose rendered artifacts are byte-identical to an
// unsharded run of the same spec. The tracer counts the analysis spans
// into the server registry, as an unsharded job's does.
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
	cfg := spec.config(s.reg)
	cfg.Tracer = spec.tracer(s.reg)
	res, err := webmeasure.AssembleFromPartials(ctx, cfg, parts)
	if err != nil {
		return nil, err
	}
	return render(res, cfg.Tracer)
}

// shardPartial obtains one shard's partial from the remote shard workers,
// or crawls the slice in-process when none is configured or every
// dispatch fails. It caches nothing: a resubmitted coordinator resolves
// from its own result, a re-dispatched slice from the worker's cache.
func (s *Server) shardPartial(ctx context.Context, spec JobSpec, shard int) (*core.Partial, error) {
	shardSpec := spec
	shardSpec.Shard = shard
	if s.shard != nil {
		wire, err := s.shard.fetchPartial(ctx, shardSpec)
		if err == nil {
			s.mShardRemote.Inc()
			return core.DecodePartial(wire)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s.mShardFallbacks.Inc()
		s.log.Warn("shard dispatch failed, running locally", "shard", shard, "error", err.Error())
	}
	part, _, err := crawlShard(ctx, shardSpec)
	return part, err
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
