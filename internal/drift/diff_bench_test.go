package drift_test

import (
	"context"
	"testing"

	"webmeasure"
	"webmeasure/internal/drift"
)

var deltaSink *drift.Delta

// BenchmarkDiff diffs two consecutive generated epochs of a monitor-sized
// universe (10 sites × 4 pages): the sequential delta every monitor epoch
// computes, rebuilding each common page's reference trees from records.
func BenchmarkDiff(b *testing.B) {
	baseline := func(epoch int) *drift.Baseline {
		res, err := webmeasure.Run(context.Background(), webmeasure.Config{
			Seed: 5, Sites: 10, PagesPerSite: 4, Epoch: epoch, Workers: 1, SiteWorkers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.DriftBaseline()
	}
	from, to := baseline(1), baseline(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := drift.Diff(from, to)
		if err != nil {
			b.Fatal(err)
		}
		deltaSink = d
	}
}
