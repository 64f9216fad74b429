package service

import (
	"encoding/json"
	"fmt"
	"time"

	"webmeasure"
	"webmeasure/internal/browser"
	"webmeasure/internal/dataset"
	"webmeasure/internal/faults"
	"webmeasure/internal/metrics"
)

// JobSpec is the wire form of a measurement job: which universe to
// generate (seed/epoch), how much of it to crawl (sites/pages), with
// which browser profiles, and how to analyze it. The zero value of every
// field means "the experiment default", mirroring webmeasure.Config.
type JobSpec struct {
	Seed         int64    `json:"seed,omitempty"`
	Sites        int      `json:"sites,omitempty"`
	TrancoSize   int      `json:"tranco_size,omitempty"`
	PagesPerSite int      `json:"pages_per_site,omitempty"`
	Instances    int      `json:"instances,omitempty"`
	Epoch        int      `json:"epoch,omitempty"`
	Stateful     bool     `json:"stateful,omitempty"`
	Profiles     []string `json:"profiles,omitempty"`
	// FaultProfile selects the deterministic fault-injection profile
	// ("off", "light", "heavy"; empty = off). Part of the cache key: the
	// injected faults change the dataset, so each profile is its own
	// experiment.
	FaultProfile string `json:"fault_profile,omitempty"`
	// Workers bounds the analysis worker pool. It is deliberately NOT
	// part of the cache key: the analysis is byte-identical for every
	// worker count (the repo's determinism golden test), so results may
	// be shared across jobs that differ only here.
	Workers int `json:"workers,omitempty"`
	// SiteWorkers bounds the crawl's site-level worker pool. Like
	// Workers it is deliberately NOT part of the cache key: the crawl's
	// output is byte-identical for every site-worker count (the reorder
	// sequencer emits sites in list order), so results may be shared
	// across jobs that differ only here.
	SiteWorkers int `json:"site_workers,omitempty"`
	// TraceSample enables span tracing for the job: 0 runs untraced, 1
	// traces every page, N>1 head-samples one page in N. It IS part of
	// the cache key — a traced job carries a trace artifact an untraced
	// one lacks, so they are distinct results even though the dataset
	// bytes agree.
	TraceSample int `json:"trace_sample,omitempty"`
	// Shards splits the job's page-key space for distributed
	// shard-and-merge analysis (0 or 1 = a whole-experiment job). A job
	// with Shards > 1 and Shard 0 is a coordinator: it fans one shard job
	// per slice out to the configured shard workers (or runs them
	// in-process) and merges the partials into full artifacts.
	Shards int `json:"shards,omitempty"`
	// Shard selects one slice (1-based, ≤ Shards): the job runs only that
	// slice and publishes a partial.json artifact instead of the full
	// report. 0 with Shards > 1 means "coordinate all shards".
	Shard int `json:"shard,omitempty"`
	// ShardSeed seeds the shard plan's page-key hash (0 = Seed). Part of
	// the cache key together with Shards and Shard: the same slice under a
	// different plan is a different result.
	ShardSeed int64 `json:"shard_seed,omitempty"`
	// DatasetFormat selects the job's primary dataset artifact encoding:
	// "jsonl" (the default, canonicalized to empty) or "col" (the compact
	// columnar format, published as dataset.col). It IS part of the cache
	// key — like TraceSample, a columnar job advertises an artifact a
	// JSONL job lacks — though the visits underneath are identical.
	DatasetFormat string `json:"dataset_format,omitempty"`
}

// normalize fills every defaulted field with its concrete value (the same
// rules webmeasure.Config applies) and expands an empty profile set to
// the explicit five, so two specs that mean the same experiment become
// the same canonical value. It validates against limits and returns the
// normalized copy.
func (s JobSpec) normalize(limits Limits) (JobSpec, error) {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Sites <= 0 {
		s.Sites = 100
	}
	if s.TrancoSize <= 0 {
		s.TrancoSize = s.Sites * 10
	}
	if s.TrancoSize < s.Sites {
		s.TrancoSize = s.Sites
	}
	if s.PagesPerSite <= 0 {
		s.PagesPerSite = 10
	}
	if s.Instances <= 0 {
		s.Instances = 15
	}
	if s.Workers < 0 {
		s.Workers = 0
	}
	if s.SiteWorkers < 0 {
		s.SiteWorkers = 0
	}
	if s.TraceSample < 0 {
		s.TraceSample = 0
	}
	if _, err := faults.ByName(s.FaultProfile); err != nil {
		return s, err
	}
	if s.FaultProfile == "off" {
		// "off" and "" mean the same experiment; canonicalize so they
		// share a cache key.
		s.FaultProfile = ""
	}
	switch s.DatasetFormat {
	case "", dataset.FormatCol:
	case dataset.FormatJSONL:
		// "jsonl" and "" mean the same artifact set; canonicalize so they
		// share a cache key.
		s.DatasetFormat = ""
	default:
		return s, fmt.Errorf("unknown dataset_format %q (want jsonl or col)", s.DatasetFormat)
	}
	if s.Sites > limits.MaxSites {
		return s, fmt.Errorf("sites %d exceeds the server limit %d", s.Sites, limits.MaxSites)
	}
	if s.PagesPerSite > limits.MaxPagesPerSite {
		return s, fmt.Errorf("pages_per_site %d exceeds the server limit %d", s.PagesPerSite, limits.MaxPagesPerSite)
	}
	if s.Epoch < 0 {
		return s, fmt.Errorf("epoch must be non-negative")
	}
	if s.Shards <= 1 {
		if s.Shard > 0 {
			return s, fmt.Errorf("shard %d requires shards > 1", s.Shard)
		}
		// Unsharded jobs canonicalize all shard fields to zero so every
		// spelling of "the whole experiment" shares a cache key.
		s.Shards, s.Shard, s.ShardSeed = 0, 0, 0
	} else {
		if s.Shards > limits.MaxShards {
			return s, fmt.Errorf("shards %d exceeds the server limit %d", s.Shards, limits.MaxShards)
		}
		if s.Shard < 0 || s.Shard > s.Shards {
			return s, fmt.Errorf("shard %d out of range for %d shards", s.Shard, s.Shards)
		}
		if s.ShardSeed == 0 {
			s.ShardSeed = s.Seed
		}
	}
	all := browser.DefaultProfiles()
	if len(s.Profiles) == 0 {
		names := make([]string, len(all))
		for i, p := range all {
			names[i] = p.Name
		}
		s.Profiles = names
		return s, nil
	}
	// Validate and re-order to the canonical Table 1 order, dropping
	// duplicates, so every spelling of the same set shares a cache key.
	want := make(map[string]bool, len(s.Profiles))
	for _, n := range s.Profiles {
		found := false
		for _, p := range all {
			if p.Name == n {
				found = true
				break
			}
		}
		if !found {
			return s, fmt.Errorf("unknown profile %q", n)
		}
		want[n] = true
	}
	ordered := make([]string, 0, len(want))
	for _, p := range all {
		if want[p.Name] {
			ordered = append(ordered, p.Name)
		}
	}
	s.Profiles = ordered
	return s, nil
}

// cacheKey is the canonical identity of the measurement a spec describes:
// the JSON encoding of the normalized spec with Workers and SiteWorkers
// zeroed (neither pool size changes the output bytes). Two submissions
// with equal keys are the same deterministic experiment.
func (s JobSpec) cacheKey() string {
	s.Workers = 0
	s.SiteWorkers = 0
	b, err := json.Marshal(s)
	if err != nil {
		// JobSpec is a plain struct of scalars and strings; Marshal
		// cannot fail on it.
		panic(fmt.Sprintf("service: marshal spec: %v", err))
	}
	return string(b)
}

// config maps the spec onto the facade config, attaching the server's
// shared metrics registry.
func (s JobSpec) config(reg *metrics.Registry) webmeasure.Config {
	shardIndex := 0
	if s.Shard > 0 {
		shardIndex = s.Shard - 1
	}
	return webmeasure.Config{
		Seed:         s.Seed,
		Sites:        s.Sites,
		TrancoSize:   s.TrancoSize,
		PagesPerSite: s.PagesPerSite,
		Instances:    s.Instances,
		Epoch:        s.Epoch,
		Stateful:     s.Stateful,
		Profiles:     s.Profiles,
		FaultProfile: s.FaultProfile,
		Workers:      s.Workers,
		SiteWorkers:  s.SiteWorkers,
		Shards:       s.Shards,
		ShardIndex:   shardIndex,
		ShardSeed:    s.ShardSeed,
		Metrics:      reg,
	}
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether the state can no longer change.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// result holds a finished job's artifacts, each rendered or encoded once
// and held as bytes, so a cache hit serves the exact same bytes and no
// finished job keeps its visits in memory. The dataset is held as its
// columnar encoding: dataset.col downloads write those bytes, and
// dataset.jsonl downloads decode them and stream the JSONL form, which
// the columnar round trip reproduces byte for byte. The trace fields are
// nil/zero for untraced jobs.
type result struct {
	report     []byte
	json       []byte
	csv        []byte
	datasetCol []byte
	summary    webmeasure.Summary

	traceChrome []byte // Chrome trace-event JSON (nil = job ran untraced)
	traceJSONL  []byte // one span per line, canonical order
	traceCount  int
	spanCount   int

	// partial is the encoded core.Partial of a shard job (nil for whole
	// and coordinator jobs, whose artifacts are the rendered text above).
	partial []byte
}

// size is the byte length of every artifact the result holds.
func (r *result) size() int64 {
	n := 0
	for _, b := range [][]byte{r.report, r.json, r.csv, r.datasetCol, r.traceChrome, r.traceJSONL, r.partial} {
		n += len(b)
	}
	return int64(n)
}

// Job is one submitted measurement. All mutable fields are guarded by the
// owning Server's mutex; Done is closed exactly once when the job reaches
// a terminal state.
type Job struct {
	ID   string
	Spec JobSpec

	key      string
	state    State
	err      string
	cacheHit bool

	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel func() // non-nil while running
	res    *result

	startedCh chan struct{}
	done      chan struct{}
}

// Done returns a channel that closes when the job reaches a terminal
// state (done, failed, or canceled).
func (j *Job) Done() <-chan struct{} { return j.done }

// Started returns a channel that closes when the job leaves the queue —
// either because a worker picked it up or because it resolved without
// running (cache hit, cancellation, shutdown). Tests synchronize on it
// instead of polling.
func (j *Job) Started() <-chan struct{} { return j.startedCh }

// markStarted closes the Started channel once. Callers hold the server
// mutex, so the check-then-close is race-free.
func (j *Job) markStarted() {
	select {
	case <-j.startedCh:
	default:
		close(j.startedCh)
	}
}

// jobJSON is the API projection of a Job.
type jobJSON struct {
	ID          string              `json:"id"`
	State       State               `json:"state"`
	Spec        JobSpec             `json:"spec"`
	CacheHit    bool                `json:"cache_hit"`
	Error       string              `json:"error,omitempty"`
	SubmittedAt time.Time           `json:"submitted_at"`
	StartedAt   *time.Time          `json:"started_at,omitempty"`
	FinishedAt  *time.Time          `json:"finished_at,omitempty"`
	DurationMS  float64             `json:"duration_ms,omitempty"`
	Summary     *webmeasure.Summary `json:"summary,omitempty"`
	Artifacts   map[string]string   `json:"artifacts,omitempty"`
	TraceCount  int                 `json:"trace_count,omitempty"`
	SpanCount   int                 `json:"span_count,omitempty"`
}

// view renders the job for the API. Callers must hold the server mutex.
func (j *Job) view() jobJSON {
	v := jobJSON{
		ID:          j.ID,
		State:       j.state,
		Spec:        j.Spec,
		CacheHit:    j.cacheHit,
		Error:       j.err,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
		if !j.started.IsZero() {
			v.DurationMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	if j.state == StateDone && j.res != nil {
		s := j.res.summary
		v.Summary = &s
		base := "/v1/jobs/" + j.ID + "/"
		v.Artifacts = map[string]string{}
		if j.res.report != nil {
			v.Artifacts["report"] = base + "report"
			v.Artifacts["json"] = base + "result.json"
			v.Artifacts["csv"] = base + "result.csv"
		}
		if j.res.datasetCol != nil {
			v.Artifacts["dataset"] = base + "dataset.jsonl"
			if j.Spec.DatasetFormat == dataset.FormatCol {
				v.Artifacts["dataset_col"] = base + "dataset.col"
			}
		}
		if j.res.partial != nil {
			v.Artifacts["partial"] = base + "partial.json"
		}
		if j.res.traceChrome != nil {
			v.Artifacts["trace"] = base + "trace.json"
			v.Artifacts["trace_jsonl"] = base + "trace.jsonl"
			v.TraceCount = j.res.traceCount
			v.SpanCount = j.res.spanCount
		}
	}
	return v
}
