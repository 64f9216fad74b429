package webmeasure

import (
	"context"
	"io"
	"testing"

	"webmeasure/internal/core"
)

// BenchmarkShardAssemble is the coordinator's side of a sharded run: the
// setup crawls the four shards of a 10-site × 4-page config and encodes
// each shard's partial, and each op decodes the four partials, assembles
// them and renders the report. wire_MB is the four partials' encoded size,
// what a coordinator downloads from its shard workers:
//
//	go test -run '^$' -bench ShardAssemble -benchmem .
func BenchmarkShardAssemble(b *testing.B) {
	cfg := Config{Seed: benchSeed, Sites: 10, PagesPerSite: 4, Workers: 1, SiteWorkers: 1, Shards: 4}
	wires := make([][]byte, cfg.Shards)
	wire := 0
	for i := range wires {
		shardCfg := cfg
		shardCfg.ShardIndex = i
		part, _, err := CrawlPartial(context.Background(), shardCfg)
		if err != nil {
			b.Fatal(err)
		}
		if wires[i], err = part.Encode(); err != nil {
			b.Fatal(err)
		}
		wire += len(wires[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := make([]*core.Partial, len(wires))
		for j, w := range wires {
			var err error
			if parts[j], err = core.DecodePartial(w); err != nil {
				b.Fatal(err)
			}
		}
		res, err := AssembleFromPartials(context.Background(), cfg, parts)
		if err != nil {
			b.Fatal(err)
		}
		res.WriteReport(io.Discard)
	}
	b.ReportMetric(float64(wire)/1e6, "wire_MB")
}
