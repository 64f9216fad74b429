package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"webmeasure/internal/crawler"
	"webmeasure/internal/dataset"
	"webmeasure/internal/faults"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
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

// wirePartials encodes each shard's slice of ds as the partial a shard
// worker ships.
func wirePartials(t testing.TB, ds *dataset.Dataset, opts Options, plan ShardPlan) [][]byte {
	t.Helper()
	wires := make([][]byte, plan.Count)
	for i := range wires {
		var col bytes.Buffer
		if err := shardDataset(ds, plan, i).WriteCol(&col); err != nil {
			t.Fatal(err)
		}
		part := &Partial{Schema: PartialSchema, Plan: plan, Shard: i, Profiles: opts.Profiles, Dataset: col.Bytes()}
		var err error
		if wires[i], err = part.Encode(); err != nil {
			t.Fatal(err)
		}
	}
	return wires
}

// splitPartials splits ds under plan and round-trips every shard's
// partial through its wire encoding.
func splitPartials(t testing.TB, ds *dataset.Dataset, opts Options, plan ShardPlan) []*Partial {
	t.Helper()
	parts := make([]*Partial, plan.Count)
	for i, wire := range wirePartials(t, ds, opts, plan) {
		var err error
		if parts[i], err = DecodePartial(wire); err != nil {
			t.Fatal(err)
		}
	}
	return parts
}

// analyzePartials analyzes the union of a partial set, as a coordinator
// does.
func analyzePartials(plan ShardPlan, parts []*Partial, filter *filterlist.List, opts Options) (*Analysis, *dataset.Dataset, error) {
	union, err := UnionPartials(plan, opts.Profiles, parts)
	if err != nil {
		return nil, nil, err
	}
	a, err := analyzeDataset(union, filter, opts)
	return a, union, err
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
// dataset under a plan, shipping each slice as a wire partial, and
// analyzing the union must reproduce the direct analysis bit for bit.
func TestMergeOfSplitEqualsDirect(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 21)
	direct, err := analyzeDataset(ds, filter, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 2, 4, 7} {
		plan := ShardPlan{Count: count, Seed: 21}
		merged, union, err := analyzePartials(plan, splitPartials(t, ds, opts, plan), filter, opts)
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		if union.Len() != ds.Len() {
			t.Errorf("%s: union holds %d visits, the dataset %d", plan, union.Len(), ds.Len())
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
// the union keys on the shard index, never on arrival order.
func TestMergePermutationInvariant(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 33)
	plan := ShardPlan{Count: 3, Seed: 33}
	parts := splitPartials(t, ds, opts, plan)
	var wantUnion, wantExport []byte
	for _, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		shuffled := []*Partial{parts[perm[0]], parts[perm[1]], parts[perm[2]]}
		merged, union, err := analyzePartials(plan, shuffled, filter, opts)
		if err != nil {
			t.Fatalf("perm %v: %v", perm, err)
		}
		var jsonl bytes.Buffer
		if err := union.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		export := exportJSON(t, merged)
		if wantUnion == nil {
			wantUnion, wantExport = jsonl.Bytes(), export
			continue
		}
		if !bytes.Equal(jsonl.Bytes(), wantUnion) {
			t.Errorf("perm %v: union differs from first permutation", perm)
		}
		if !bytes.Equal(export, wantExport) {
			t.Errorf("perm %v: export differs from first permutation", perm)
		}
	}
}

// TestMergeRejectsBadPartialSets: the union must refuse incomplete,
// duplicated, cross-plan, cross-profile or torn partial sets instead of
// silently producing a partial or inflated answer.
func TestMergeRejectsBadPartialSets(t *testing.T) {
	ds, _, opts := shardExperiment(t, 8)
	plan := ShardPlan{Count: 2, Seed: 8}
	parts := splitPartials(t, ds, opts, plan)
	if _, err := UnionPartials(plan, opts.Profiles, parts); err != nil {
		t.Fatalf("the intact set is refused: %v", err)
	}
	reject := func(what string, set []*Partial, want string) {
		t.Helper()
		_, err := UnionPartials(plan, opts.Profiles, set)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s accepted or misreported (err %v, want it to mention %q)", what, err, want)
		}
	}
	reject("short partial set", parts[:1], "1 partials")
	reject("duplicate shard", []*Partial{parts[0], parts[0]}, "duplicate")
	other := *parts[1]
	other.Plan = ShardPlan{Count: 2, Seed: 999}
	reject("partial from a different plan", []*Partial{parts[0], &other}, "seed=999")
	reject("nil partial", []*Partial{parts[0], nil}, "nil")
	beyond := *parts[1]
	beyond.Shard = 2
	reject("out-of-range shard", []*Partial{parts[0], &beyond}, "out of range")
	fewer := *parts[1]
	fewer.Profiles = opts.Profiles[1:]
	reject("partial crawled with other profiles", []*Partial{parts[0], &fewer}, "profiles")
	torn := *parts[1]
	torn.Dataset = torn.Dataset[:len(torn.Dataset)/2]
	reject("torn dataset", []*Partial{parts[0], &torn}, "dataset of shard 1")
}

// TestPartialRejectsWrongShard: a shard's visits shipped under another
// shard's index must be refused — the crawl and the plan disagree, and an
// analysis of the union would count their pages under the wrong shard.
func TestPartialRejectsWrongShard(t *testing.T) {
	ds, _, opts := shardExperiment(t, 8)
	plan := ShardPlan{Count: 2, Seed: 8}
	parts := splitPartials(t, ds, opts, plan)
	swapped := []*Partial{{}, {}}
	for i, p := range parts {
		*swapped[1-i] = *p
		swapped[1-i].Shard = 1 - i
	}
	if _, err := UnionPartials(plan, opts.Profiles, swapped); err == nil || !strings.Contains(err.Error(), "assigns to shard") {
		t.Errorf("visits shipped under the other shard's index accepted (err %v)", err)
	}
	if _, err := UnionPartials(ShardPlan{Count: 0}, opts.Profiles, nil); err == nil {
		t.Error("invalid plan accepted")
	}
}

// TestMergeStopsOnCanceledContext: the union is analyzed on opts.Context,
// so a coordinator whose job was canceled stops analyzing.
func TestMergeStopsOnCanceledContext(t *testing.T) {
	ds, filter, opts := shardExperiment(t, 8)
	plan := ShardPlan{Count: 2, Seed: 8}
	parts := splitPartials(t, ds, opts, plan)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Context = ctx
	if _, _, err := analyzePartials(plan, parts, filter, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("merge under a canceled context: err %v, want context.Canceled", err)
	}
}

// TestDecodePartialSchema: a partial from a different wire schema must be
// refused, not misread — the schema-2 form shipped tree records.
func TestDecodePartialSchema(t *testing.T) {
	for _, wire := range []string{`{"schema":99}`, `{"schema":2,"pages":[]}`} {
		if _, err := DecodePartial([]byte(wire)); err == nil {
			t.Errorf("wrong schema accepted: %s", wire)
		}
	}
	if _, err := DecodePartial([]byte(`not json`)); err == nil {
		t.Error("malformed partial accepted")
	}
}

// fuzzDataset holds two profiles' visits to six pages of three sites: a
// valid dataset small enough for the fuzzer to mutate and minimize
// quickly.
func fuzzDataset() (*dataset.Dataset, Options) {
	opts := Options{Profiles: []string{"Sim1", "Sim2"}}
	ds := dataset.New()
	for s := 0; s < 3; s++ {
		site := fmt.Sprintf("site%d.example", s)
		for p := 0; p < 2; p++ {
			page := fmt.Sprintf("https://%s/p%d", site, p)
			for _, prof := range opts.Profiles {
				ds.Add(&measurement.Visit{Site: site, PageURL: page, Profile: prof, Success: true,
					Requests: []measurement.Request{
						{URL: page, Type: measurement.TypeMainFrame},
						{URL: "https://cdn.example/a.js", Type: measurement.TypeScript},
					}})
			}
		}
	}
	return ds, opts
}

// FuzzDecodePartial feeds arbitrary bytes as shard 1's wire partial of a
// 2-shard plan, beside an intact shard 0. Decoding and the union must
// never panic, and a union they accept must hold shard 0's visits and
// then shard 1's, each assigned by the plan to the shard that shipped it.
func FuzzDecodePartial(f *testing.F) {
	ds, opts := fuzzDataset()
	plan := ShardPlan{Count: 2, Seed: 5}
	firstVisits := shardDataset(ds, plan, 0).Len()
	if firstVisits == 0 || firstVisits == ds.Len() {
		f.Fatalf("%s puts %d of %d visits in shard 0: pick a seed that splits them", plan, firstVisits, ds.Len())
	}
	wires := wirePartials(f, ds, opts, plan)
	first, err := DecodePartial(wires[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wires[1])
	for _, n := range []int{0, 1, len(wires[1]) / 2, len(wires[1]) - 1} {
		f.Add(wires[1][:n])
	}
	torn, err := DecodePartial(wires[1])
	if err != nil {
		f.Fatal(err)
	}
	torn.Dataset = torn.Dataset[:len(torn.Dataset)-9]
	tornWire, err := torn.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tornWire)
	f.Fuzz(func(t *testing.T, wire []byte) {
		p, err := DecodePartial(wire)
		if err != nil {
			return
		}
		union, err := UnionPartials(plan, opts.Profiles, []*Partial{first, p})
		if err != nil {
			return
		}
		for i, v := range union.Visits() {
			shipper := 0
			if i >= firstVisits {
				shipper = 1
			}
			if got := plan.Assign(dataset.PageKey{Site: v.Site, PageURL: v.PageURL}); got != shipper {
				t.Fatalf("visit %d (%s/%s) came from shard %d, but the plan assigns it to shard %d", i, v.Site, v.PageURL, shipper, got)
			}
		}
	})
}
