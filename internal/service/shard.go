package service

// shardClient is the coordinator's dispatcher: it submits a shard job to
// a peer server over the same HTTP API human clients use (POST /v1/jobs,
// poll GET /v1/jobs/{id}, download partial.json), so the job-spec, queue,
// and result-cache machinery double as the distribution wire protocol. A
// worker that refuses, dies, or fails the job costs one attempt; attempts
// rotate round-robin through the worker list so a single dead worker
// cannot absorb every retry for its shards.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"webmeasure/internal/metrics"
)

// A shard dispatch tries up to shardAttempts workers (clamped to the
// worker count) before the coordinator crawls the slice itself, and polls
// a running remote shard job every shardPoll.
const (
	shardAttempts = 3
	shardPoll     = 150 * time.Millisecond
)

type shardClient struct {
	workers  []string
	poll     time.Duration
	client   *http.Client
	log      *slog.Logger
	mRetries *metrics.Counter
}

func newShardClient(workers []string, log *slog.Logger, retries *metrics.Counter) *shardClient {
	return &shardClient{
		workers:  workers,
		poll:     shardPoll,
		client:   &http.Client{Timeout: 30 * time.Second},
		log:      log,
		mRetries: retries,
	}
}

// fetchPartial runs the shard job on a remote worker and returns the
// encoded partial. Worker selection starts at the shard's home worker
// (shard modulo worker count, spreading a coordinator's slices evenly)
// and rotates on every retry.
func (c *shardClient) fetchPartial(ctx context.Context, spec JobSpec) ([]byte, error) {
	var lastErr error
	attempts := min(shardAttempts, len(c.workers))
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		worker := c.workers[(spec.Shard-1+a)%len(c.workers)]
		wire, err := c.tryWorker(ctx, worker, spec)
		if err == nil {
			return wire, nil
		}
		lastErr = err
		if a+1 < attempts {
			c.mRetries.Inc()
			c.log.Warn("shard worker failed, retrying on next",
				"shard", spec.Shard, "worker", worker, "error", err.Error())
		}
	}
	return nil, fmt.Errorf("service: shard %d failed on %d worker(s): %w", spec.Shard, attempts, lastErr)
}

// tryWorker drives one worker through the full job lifecycle.
func (c *shardClient) tryWorker(ctx context.Context, worker string, spec JobSpec) ([]byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("marshal shard spec: %w", err)
	}
	var submitted struct {
		ID    string `json:"id"`
		State State  `json:"state"`
		Error string `json:"error"`
	}
	if err := c.do(ctx, http.MethodPost, worker+"/v1/jobs", body, &submitted); err != nil {
		return nil, err
	}
	for !submitted.State.terminal() {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.poll):
		}
		if err := c.do(ctx, http.MethodGet, worker+"/v1/jobs/"+submitted.ID, nil, &submitted); err != nil {
			return nil, err
		}
	}
	if submitted.State != StateDone {
		return nil, fmt.Errorf("worker %s: shard job %s %s: %s", worker, submitted.ID, submitted.State, submitted.Error)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/jobs/"+submitted.ID+"/partial.json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker %s: partial.json: HTTP %d", worker, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 256<<20))
}

// do performs one JSON request/response exchange.
func (c *shardClient) do(ctx context.Context, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, truncate(raw, 200))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: parse response: %w", method, url, err)
		}
	}
	return nil
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "…"
}
