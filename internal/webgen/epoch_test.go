package webgen

import (
	"fmt"
	"testing"

	"webmeasure/internal/tranco"
)

func epochEntry(i int) tranco.Entry {
	return tranco.Entry{Rank: i, Site: nameFor(i) + "-epoch.example"}
}

func TestGenerateSiteAtEpochZeroMatchesBase(t *testing.T) {
	u := testUniverse()
	e := epochEntry(3)
	a, b := u.GenerateSite(e), u.GenerateSiteAt(e, 0)
	if a.Landing.Seed != b.Landing.Seed || len(a.Pages) != len(b.Pages) {
		t.Error("epoch 0 must equal the base site")
	}
}

func TestGenerateSiteAtDeterministic(t *testing.T) {
	u := testUniverse()
	e := epochEntry(5)
	a, b := u.GenerateSiteAt(e, 3), u.GenerateSiteAt(e, 3)
	if len(a.Pages) != len(b.Pages) || a.Landing.Seed != b.Landing.Seed {
		t.Fatal("epochs must be deterministic")
	}
	for i := range a.Pages {
		if a.Pages[i].URL != b.Pages[i].URL || a.Pages[i].Seed != b.Pages[i].Seed {
			t.Fatalf("page %d differs across identical generations", i)
		}
	}
}

func TestEpochChurnsContent(t *testing.T) {
	u := testUniverse()
	var churnedPages, churnedCounts, trials int
	for i := 1; i <= 25; i++ {
		e := epochEntry(i)
		base := u.GenerateSiteAt(e, 0)
		later := u.GenerateSiteAt(e, 2)
		if base.Unreachable || len(base.Pages) < 3 {
			continue
		}
		trials++
		if len(later.Pages) != len(base.Pages) {
			churnedCounts++
		}
		// Same-URL pages whose seed changed were re-edited.
		baseByURL := map[string]*Page{}
		for _, p := range base.Pages {
			baseByURL[p.URL] = p
		}
		for _, p := range later.Pages {
			if bp := baseByURL[p.URL]; bp != nil && bp.Seed != p.Seed {
				churnedPages++
			}
		}
	}
	if trials == 0 {
		t.Skip("no usable sites")
	}
	if churnedPages == 0 {
		t.Error("no page content churned across epochs")
	}
	if churnedCounts == 0 {
		t.Error("no page turnover across epochs")
	}
}

func TestEpochPreservesIdentity(t *testing.T) {
	u := testUniverse()
	e := epochEntry(7)
	base := u.GenerateSiteAt(e, 0)
	later := u.GenerateSiteAt(e, 4)
	if base.Unreachable != later.Unreachable || base.Domain != later.Domain {
		t.Fatal("site identity must survive epochs")
	}
	// Surviving pages keep their URLs.
	baseURLs := map[string]bool{}
	for _, p := range base.Pages {
		baseURLs[p.URL] = true
	}
	kept := 0
	for _, p := range later.Pages {
		if baseURLs[p.URL] {
			kept++
		}
	}
	if len(base.Pages) > 3 && kept == 0 {
		t.Error("no page URLs survived 4 epochs — churn too aggressive")
	}
}

func TestEpochDriftGrowsWithDistance(t *testing.T) {
	u := testUniverse()
	// Average page-URL overlap should shrink as epochs advance.
	overlap := func(epoch int) float64 {
		var total, shared int
		for i := 1; i <= 20; i++ {
			e := epochEntry(i)
			base := u.GenerateSiteAt(e, 0)
			later := u.GenerateSiteAt(e, epoch)
			if base.Unreachable || len(base.Pages) == 0 {
				continue
			}
			baseURLs := map[string]bool{}
			for _, p := range base.Pages {
				baseURLs[p.URL] = true
				total++
			}
			for _, p := range later.Pages {
				if baseURLs[p.URL] {
					shared++
				}
			}
		}
		if total == 0 {
			return 1
		}
		return float64(shared) / float64(total)
	}
	near, far := overlap(1), overlap(6)
	if far > near {
		t.Errorf("drift must grow with epoch distance: overlap e1=%.2f e6=%.2f", near, far)
	}
}

// BenchmarkGenerateSiteAt generates the sites of a monitor-sized ranking
// (10 sites × 4 pages) at epochs 0, 8 and 16: a later epoch replays every
// churn step from epoch 1.
func BenchmarkGenerateSiteAt(b *testing.B) {
	cfg := DefaultConfig(5)
	cfg.PagesPerSite = 4
	u := New(cfg)
	entries := tranco.Generate(10, 5).Entries()
	for _, epoch := range []int{0, 8, 16} {
		b.Run(fmt.Sprintf("epoch=%d", epoch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				siteSink = u.GenerateSiteAt(entries[i%len(entries)], epoch)
			}
		})
	}
}

var siteSink *Site
