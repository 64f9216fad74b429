package core

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"webmeasure/internal/crawler"
	"webmeasure/internal/dataset"
	"webmeasure/internal/faults"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/tranco"
	"webmeasure/internal/webgen"
)

// shardExperiment crawls a small experiment and returns the pieces the
// shard-and-merge tests need.
func shardExperiment(t testing.TB, seed int64) (*dataset.Dataset, *filterlist.List, Options) {
	t.Helper()
	return faultyExperiment(t, seed, faults.Profile{})
}

// faultyExperiment is shardExperiment with the crawl under a fault
// profile.
func faultyExperiment(t testing.TB, seed int64, prof faults.Profile) (*dataset.Dataset, *filterlist.List, Options) {
	t.Helper()
	const nSites = 10
	u := webgen.New(webgen.DefaultConfig(seed))
	list := tranco.Generate(nSites*10, seed)
	sample := list.Sample(tranco.ScaledBoundaries(nSites*10), nSites/5, seed)
	ds, _, err := crawler.Run(context.Background(), crawler.Config{
		Universe: u, Sites: sample, MaxPages: 4, Instances: 4, Seed: seed, Faults: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	filter, _ := filterlist.Parse(u.FilterListText())
	return ds, filter, Options{Profiles: []string{"Old", "Sim1", "Sim2", "NoAction", "Headless"}}
}

// shardDataset returns the visits to the pages plan assigns to shard.
func shardDataset(ds *dataset.Dataset, plan ShardPlan, shard int) *dataset.Dataset {
	out := dataset.New()
	for _, v := range ds.Visits() {
		if plan.Assign(dataset.PageKey{Site: v.Site, PageURL: v.PageURL}) == shard {
			out.Add(v)
		}
	}
	return out
}

// splitPartials analyzes each shard's slice independently and round-trips
// every partial through its wire encoding.
func splitPartials(t testing.TB, ds *dataset.Dataset, filter *filterlist.List, opts Options, plan ShardPlan) []*Partial {
	t.Helper()
	parts := make([]*Partial, plan.Count)
	for i := 0; i < plan.Count; i++ {
		a, err := New(shardDataset(ds, plan, i), filter, opts)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		part, err := a.Partial(plan, i)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		wire, err := part.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if parts[i], err = DecodePartial(wire); err != nil {
			t.Fatal(err)
		}
	}
	return parts
}

// exportJSON renders the analysis's full JSON bundle — the widest net for
// "indistinguishable from the direct analysis".
func exportJSON(t testing.TB, a *Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Export(ExportOptions{}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeOfSplitEqualsDirect: merge(split(X)) == X — splitting the
// dataset under a plan, analyzing each slice, and merging the partials
// must reproduce the direct analysis bit for bit.
func TestMergeOfSplitEqualsDirect(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 21)
	direct, err := New(ds, filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 2, 4, 7} {
		plan := ShardPlan{Count: count, Seed: 21}
		parts := splitPartials(t, ds, filter, opts, plan)
		merged, err := NewFromPartials(ds, opts, plan, parts)
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		if got, want := merged.Vetting(), direct.Vetting(); got != want {
			t.Errorf("%s: vetting %+v, want %+v", plan, got, want)
		}
		if got, want := exportJSON(t, merged), exportJSON(t, direct); !bytes.Equal(got, want) {
			t.Errorf("%s: merged export differs from direct (%d vs %d bytes)", plan, len(got), len(want))
		}
	}
}

// TestMergePermutationInvariant: the partials may arrive in any order —
// the merge keys on the shard index, never on arrival order.
func TestMergePermutationInvariant(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 33)
	plan := ShardPlan{Count: 3, Seed: 33}
	parts := splitPartials(t, ds, filter, opts, plan)
	var want []byte
	for _, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		shuffled := []*Partial{parts[perm[0]], parts[perm[1]], parts[perm[2]]}
		merged, err := NewFromPartials(ds, opts, plan, shuffled)
		if err != nil {
			t.Fatalf("perm %v: %v", perm, err)
		}
		got := exportJSON(t, merged)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("perm %v: export differs from first permutation", perm)
		}
	}
}

// TestMergeRejectsBadPartialSets: the merge must refuse incomplete,
// duplicated, overlapping, or cross-plan partial sets instead of silently
// producing a partial or inflated answer.
func TestMergeRejectsBadPartialSets(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 8)
	plan := ShardPlan{Count: 2, Seed: 8}
	parts := splitPartials(t, ds, filter, opts, plan)

	if _, err := NewFromPartials(ds, opts, plan, parts[:1]); err == nil {
		t.Error("short partial set accepted")
	}
	if _, err := NewFromPartials(ds, opts, plan, []*Partial{parts[0], parts[0]}); err == nil {
		t.Error("duplicate shard accepted")
	}
	other := *parts[1]
	other.Plan = ShardPlan{Count: 2, Seed: 999}
	if _, err := NewFromPartials(ds, opts, plan, []*Partial{parts[0], &other}); err == nil {
		t.Error("partial from a different plan accepted")
	}
	if _, err := NewFromPartials(ds, opts, plan, []*Partial{parts[0], nil}); err == nil {
		t.Error("nil partial accepted")
	}
	// A page both partials carry, inserted in key order so each partial
	// stays sorted.
	if len(parts[0].Pages) == 0 {
		t.Fatal("shard 0 vetted no pages — pick another seed")
	}
	page := parts[0].Pages[0]
	overlap := *parts[1]
	at := sort.Search(len(overlap.Pages), func(i int) bool { return page.Key.Less(overlap.Pages[i].Key) })
	overlap.Pages = append(append(append([]PartialPage(nil), overlap.Pages[:at]...), page), overlap.Pages[at:]...)
	_, err := NewFromPartials(ds, opts, plan, []*Partial{parts[0], &overlap})
	if err == nil || !strings.Contains(err.Error(), page.Key.PageURL) {
		t.Errorf("page carried by two partials accepted (err %v)", err)
	}
}

// TestMergeStopsOnCanceledContext: the merge runs on opts.Context, so a
// coordinator whose job was canceled stops rebuilding pages.
func TestMergeStopsOnCanceledContext(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 8)
	plan := ShardPlan{Count: 2, Seed: 8}
	parts := splitPartials(t, ds, filter, opts, plan)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Context = ctx
	if _, err := NewFromPartials(ds, opts, plan, parts); !errors.Is(err, context.Canceled) {
		t.Errorf("merge under a canceled context: err %v, want context.Canceled", err)
	}
}

// TestPartialRejectsWrongShard: exporting an analysis as a shard it does
// not match must fail — the crawl and the plan disagree.
func TestPartialRejectsWrongShard(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 8)
	plan := ShardPlan{Count: 2, Seed: 8}
	a, err := New(shardDataset(ds, plan, 0), filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pages()) == 0 {
		t.Fatal("shard 0 vetted no pages — pick another seed")
	}
	if _, err := a.Partial(plan, 1); err == nil {
		t.Error("shard-0 pages exported as shard 1")
	}
	if _, err := a.Partial(ShardPlan{Count: 0}, 0); err == nil {
		t.Error("invalid plan accepted")
	}
	if _, err := a.Partial(plan, 5); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

// TestDecodePartialSchema: a partial from a different wire schema must be
// refused, not misread.
func TestDecodePartialSchema(t *testing.T) {
	if _, err := DecodePartial([]byte(`{"schema":99}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := DecodePartial([]byte(`not json`)); err == nil {
		t.Error("malformed partial accepted")
	}
}
