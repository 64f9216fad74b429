package urlutil_test

import (
	"context"
	"testing"

	"webmeasure/internal/crawler"
	"webmeasure/internal/faults"
	"webmeasure/internal/tranco"
	"webmeasure/internal/urlutil"
	"webmeasure/internal/webgen"
)

// TestGeneratedURLsTakeBytePath: the byte path pays off only when the
// inputs are canonical http(s) URLs, so every URL a generated crawl
// records — page, request, redirect, frame, ground-truth parent and
// call-stack URLs, clean, under heavy faults and stateful — must take it.
func TestGeneratedURLsTakeBytePath(t *testing.T) {
	heavy, err := faults.ByName("heavy")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, mode := range []struct {
			name     string
			faults   faults.Profile
			stateful bool
		}{{"clean", faults.Off(), false}, {"heavy", heavy, false}, {"stateful", faults.Off(), true}} {
			ds, _, err := crawler.Run(context.Background(), crawler.Config{
				Universe: webgen.New(webgen.DefaultConfig(seed)), Sites: tranco.Generate(6, seed).Entries(),
				MaxPages: 3, Instances: 2, SiteWorkers: 1, Seed: seed,
				Faults: mode.faults, Stateful: mode.stateful,
			})
			if err != nil {
				t.Fatal(err)
			}
			distinct := map[string]bool{}
			var raws []string
			for _, v := range ds.Visits() {
				raws = v.AppendURLs(raws[:0])
				for _, raw := range raws {
					distinct[raw] = true
				}
			}
			canonical := 0
			for raw := range distinct {
				if urlutil.Canonical(raw) {
					canonical++
				} else {
					t.Errorf("seed %d %s: %q takes the net/url path", seed, mode.name, raw)
				}
			}
			t.Logf("seed %d %s: %d of %d distinct URLs take the byte path", seed, mode.name, canonical, len(distinct))
			if len(distinct) == 0 {
				t.Fatalf("seed %d %s: the crawl recorded no URLs", seed, mode.name)
			}
		}
	}
}
