package webmeasure

import (
	"strconv"
	"testing"

	"webmeasure/internal/core"
	"webmeasure/internal/filterlist"
)

// BenchmarkAnalysisWorkers measures the sharded analysis pipeline at
// several worker-pool sizes over the shared benchmark dataset — the
// speedup trajectory of the parallel rework (the outputs are proven
// byte-identical across worker counts by TestAnalysisByteIdenticalAcross-
// Workers, so this benchmark tracks pure wall-clock).
func BenchmarkAnalysisWorkers(b *testing.B) {
	res := benchExperiment(b)
	ds := res.Analysis().Dataset()
	filter, skipped := filterlist.Parse(res.Universe().FilterListText())
	if skipped != 0 {
		b.Fatalf("filter list has %d bad rules", skipped)
	}
	profiles := res.Analysis().Profiles()
	for _, workers := range []int{1, 4, 8} {
		b.Run(strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := analyzeDataset(ds, filter, core.Options{
					Profiles: profiles,
					Workers:  workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
