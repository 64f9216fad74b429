package webmeasure

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"webmeasure/internal/core"
	"webmeasure/internal/metrics"
	"webmeasure/internal/trace"
)

// artifacts renders every text export of a Results.
type artifacts struct {
	report, json, csv []byte
}

func renderArtifacts(t *testing.T, res *Results) artifacts {
	t.Helper()
	var rep, js, csv bytes.Buffer
	res.WriteReport(&rep)
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return artifacts{report: rep.Bytes(), json: js.Bytes(), csv: csv.Bytes()}
}

// shardedRun executes the full distributed pipeline for nShards: one
// shard crawl per shard (each with its own registry and tracer), a wire
// round-trip of every partial, then an assembly into a fresh registry and
// tracer — exactly what a coordinator with remote workers does.
func shardedRun(t *testing.T, cfg Config, nShards int) (artifacts, *metrics.Registry, *trace.Tracer) {
	t.Helper()
	parts := make([]*core.Partial, nShards)
	for i := 0; i < nShards; i++ {
		reg := metrics.New()
		shardCfg := cfg
		shardCfg.Shards = nShards
		shardCfg.ShardIndex = i
		shardCfg.Metrics = reg
		shardCfg.Tracer = trace.New(trace.Options{Seed: cfg.Seed, SampleEvery: 1, Metrics: reg})
		part, _, err := CrawlPartial(context.Background(), shardCfg)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, nShards, err)
		}
		wire, err := part.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if parts[i], err = core.DecodePartial(wire); err != nil {
			t.Fatal(err)
		}
	}
	asmCfg := cfg
	asmCfg.Shards = nShards
	asmCfg.Metrics = metrics.New()
	asmCfg.Tracer = trace.New(trace.Options{Seed: cfg.Seed, SampleEvery: 1, Metrics: asmCfg.Metrics})
	res, err := AssembleFromPartials(context.Background(), asmCfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	return renderArtifacts(t, res), asmCfg.Metrics, asmCfg.Tracer
}

// traceBytes renders both trace exports.
func traceBytes(t *testing.T, tr *trace.Tracer) (jsonl, chrome []byte) {
	t.Helper()
	var jl, ch bytes.Buffer
	if err := tr.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&ch); err != nil {
		t.Fatal(err)
	}
	return jl.Bytes(), ch.Bytes()
}

// TestShardMergeByteIdentical is the golden 1-vs-N determinism suite for
// the distributed shard-and-merge pipeline: one process and four shard
// workers must produce byte-identical report, JSON, CSV, and trace
// exports — on a clean network and under heavy fault injection, stateless
// and stateful — and the page-granular counters of the merged registry must equal the single
// run's exactly (satellite: mergeable metrics).
func TestShardMergeByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		faults   string
		stateful bool
	}{
		{name: "clean", faults: ""},
		{name: "heavy-faults", faults: "heavy"},
		// Stateful shards replay their off-shard pages to advance the
		// cookie jar; those replays must count no injected faults.
		{name: "stateful-heavy-faults", faults: "heavy", stateful: true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Seed: 11, Sites: 10, PagesPerSite: 4, FaultProfile: tc.faults, Stateful: tc.stateful}

			singleReg := metrics.New()
			singleTracer := trace.New(trace.Options{Seed: cfg.Seed, SampleEvery: 1, Metrics: singleReg})
			singleCfg := cfg
			singleCfg.Metrics = singleReg
			singleCfg.Tracer = singleTracer
			singleRes, err := Run(context.Background(), singleCfg)
			if err != nil {
				t.Fatal(err)
			}
			single := renderArtifacts(t, singleRes)
			singleJL, singleCh := traceBytes(t, singleTracer)

			sharded, mergedReg, mergedTracer := shardedRun(t, cfg, 4)
			shardJL, shardCh := traceBytes(t, mergedTracer)

			if !bytes.Equal(single.report, sharded.report) {
				t.Errorf("report differs between 1 process and 4 shards (%d vs %d bytes)",
					len(single.report), len(sharded.report))
			}
			if !bytes.Equal(single.json, sharded.json) {
				t.Errorf("JSON differs between 1 process and 4 shards (%d vs %d bytes)",
					len(single.json), len(sharded.json))
			}
			if !bytes.Equal(single.csv, sharded.csv) {
				t.Errorf("CSV differs between 1 process and 4 shards (%d vs %d bytes)",
					len(single.csv), len(sharded.csv))
			}
			if !bytes.Equal(singleJL, shardJL) {
				t.Errorf("trace JSONL differs between 1 process and 4 shards (%d vs %d bytes)",
					len(singleJL), len(shardJL))
			}
			if !bytes.Equal(singleCh, shardCh) {
				t.Errorf("Chrome trace differs between 1 process and 4 shards (%d vs %d bytes)",
					len(singleCh), len(shardCh))
			}

			// Page-granular counters must sum to the single run exactly;
			// the fault-injection and retry families are the headline
			// assertion, and the exclusion tally catches a coordinator that
			// counts exclusions again on top of the shard dumps.
			// Site-granular instruments (crawl.sites, crawl.site_ms) are
			// excluded by design: a site is counted once per shard that
			// touches it.
			mergedVals := map[string]int64{}
			for _, c := range mergedReg.Snapshot().Counters {
				mergedVals[c.Name] = c.Value
			}
			sawFault, sawRetry := false, false
			for _, c := range singleReg.Snapshot().Counters {
				exact := strings.HasPrefix(c.Name, "faults.injected") ||
					strings.HasPrefix(c.Name, "crawl.retries.total") ||
					c.Name == "crawl.pages" || c.Name == "crawl.visits" ||
					c.Name == "crawl.attempts" || c.Name == "crawl.visits.failed" ||
					c.Name == "crawl.visits.degraded" || c.Name == "crawl.visits.retried" ||
					c.Name == "analysis.pages" || c.Name == "analysis.pages.vetted" ||
					c.Name == "analysis.trees" ||
					strings.HasPrefix(c.Name, "analysis.pages.excluded.") ||
					strings.HasPrefix(c.Name, "trace.spans.")
				if !exact {
					continue
				}
				if strings.HasPrefix(c.Name, "faults.injected") {
					sawFault = true
				}
				if strings.HasPrefix(c.Name, "crawl.retries.total") {
					sawRetry = true
				}
				if got := mergedVals[c.Name]; got != c.Value {
					t.Errorf("counter %s: merged shards have %d, single run has %d", c.Name, got, c.Value)
				}
			}
			if tc.faults == "heavy" {
				if !sawFault {
					t.Error("heavy-fault run recorded no faults.injected counters")
				}
				if !sawRetry {
					t.Error("heavy-fault run recorded no crawl.retries.total counters")
				}
			}
		})
	}
}

// TestShardMergeStateful covers the stateful-crawl corner: shard workers
// must still replay off-shard pages against the shared cookie jar so the
// kept pages' bytes match the full crawl's.
func TestShardMergeStateful(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 7, Sites: 6, PagesPerSite: 3, Stateful: true}
	singleRes, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	single := renderArtifacts(t, singleRes)
	sharded, _, _ := shardedRun(t, cfg, 3)
	if !bytes.Equal(single.report, sharded.report) {
		t.Error("stateful report differs between 1 process and 3 shards")
	}
	if !bytes.Equal(single.json, sharded.json) {
		t.Error("stateful JSON differs between 1 process and 3 shards")
	}
}
