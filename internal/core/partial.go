package core

// This file is the merge half of the distributed shard-and-merge pipeline.
// A shard worker analyzes its slice of the page-key space and exports a
// Partial: the vetted pages' trees in wire form, the vetting tally, the raw
// visits, and optionally the worker's metrics dump and trace export. The
// coordinator decodes one Partial per shard and NewFromPartials lifts the
// sorted-page-key merge one level up — a k-way merge over the shards'
// already-sorted page lists — rebuilding each page's trees and recomputing
// its cross-comparison, so the merged Analysis renders report, JSON, and
// CSV byte-identical to a single-process run over the whole dataset.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"webmeasure/internal/dataset"
	"webmeasure/internal/filterlist"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
	"webmeasure/internal/trace"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
)

// PartialSchema versions the Partial wire form.
const PartialSchema = 1

// PartialPage is one vetted page in wire form: its key and its trees in
// the analysis's profile order. The cross-comparison is not shipped — it
// is deterministic in the trees and recomputed at merge time.
type PartialPage struct {
	Key   dataset.PageKey `json:"key"`
	Trees []tree.Record   `json:"trees"`
}

// Partial is one shard's contribution to a distributed analysis.
type Partial struct {
	Schema int       `json:"schema"`
	Plan   ShardPlan `json:"plan"`
	// Shard is this partial's 0-based shard index under Plan.
	Shard    int      `json:"shard"`
	Profiles []string `json:"profiles"`
	Vetting  Vetting  `json:"vetting"`
	// Pages holds the shard's vetted pages in (site, page URL) order.
	Pages []PartialPage `json:"pages"`
	// Visits carries the shard's raw dataset so the coordinator can
	// reconstruct crawl-level summaries and serve dataset exports.
	Visits []*measurement.Visit `json:"visits,omitempty"`
	// Metrics is the shard worker's registry dump; the coordinator merges
	// the dumps so page-granular counters sum exactly over shards.
	Metrics *metrics.Dump `json:"metrics,omitempty"`
	// Traces is the shard worker's trace export; traces are page-granular
	// and shards partition pages, so shard trace sets are disjoint.
	Traces []trace.TraceData `json:"traces,omitempty"`
}

// Partial exports the analysis as one shard's contribution. It validates
// that every vetted page actually belongs to the shard under the plan —
// a page on the wrong side means the crawl and the plan disagree, and a
// merge would silently duplicate or drop it.
func (a *Analysis) Partial(plan ShardPlan, shard int) (*Partial, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if shard < 0 || shard >= plan.Count {
		return nil, fmt.Errorf("core: shard %d out of range for %s", shard, plan)
	}
	p := &Partial{
		Schema:   PartialSchema,
		Plan:     plan,
		Shard:    shard,
		Profiles: a.profiles,
		Vetting:  a.vetting,
		Pages:    make([]PartialPage, 0, len(a.pages)),
	}
	for _, pa := range a.pages {
		if got := plan.Assign(pa.Key); got != shard {
			return nil, fmt.Errorf("core: page %s/%s belongs to shard %d, not %d (%s)",
				pa.Key.Site, pa.Key.PageURL, got, shard, plan)
		}
		pp := PartialPage{Key: pa.Key, Trees: make([]tree.Record, 0, len(pa.Trees))}
		for _, t := range pa.Trees {
			pp.Trees = append(pp.Trees, t.Record())
		}
		p.Pages = append(p.Pages, pp)
	}
	if a.ds != nil {
		p.Visits = a.ds.Visits()
	}
	return p, nil
}

// Encode serializes the partial for the wire.
func (p *Partial) Encode() ([]byte, error) {
	b, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("core: encode partial: %w", err)
	}
	return b, nil
}

// DecodePartial parses a wire partial and checks its schema.
func DecodePartial(b []byte) (*Partial, error) {
	var p Partial
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("core: decode partial: %w", err)
	}
	if p.Schema != PartialSchema {
		return nil, fmt.Errorf("core: partial schema %d, want %d", p.Schema, PartialSchema)
	}
	return &p, nil
}

// NewFromPartials assembles a full Analysis from one partial per shard.
// ds must be the union dataset (the coordinator rebuilds it from the
// partials' visits or loads it independently); filter and opts play the
// same roles as in New. The page lists arrive sorted per shard and the
// plan makes them disjoint, so a k-way merge by (site, page URL) restores
// exactly the order New produces; each page's trees are rebuilt from
// their wire records and re-compared in parallel. The result is
// indistinguishable from New over the union dataset.
func NewFromPartials(ds *dataset.Dataset, filter *filterlist.List, opts Options, plan ShardPlan, parts []*Partial) (*Analysis, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if len(parts) != plan.Count {
		return nil, fmt.Errorf("core: %d partials for %s", len(parts), plan)
	}
	byShard := make([]*Partial, plan.Count)
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("core: nil partial")
		}
		if p.Plan != plan {
			return nil, fmt.Errorf("core: partial of shard %d follows %s, coordinator expects %s", p.Shard, p.Plan, plan)
		}
		if p.Shard < 0 || p.Shard >= plan.Count {
			return nil, fmt.Errorf("core: partial shard %d out of range for %s", p.Shard, plan)
		}
		if byShard[p.Shard] != nil {
			return nil, fmt.Errorf("core: duplicate partial for shard %d", p.Shard)
		}
		byShard[p.Shard] = p
	}
	for i, p := range byShard {
		if p == nil {
			return nil, fmt.Errorf("core: missing partial for shard %d", i)
		}
	}
	profiles := byShard[0].Profiles
	for _, p := range byShard[1:] {
		if !equalStrings(p.Profiles, profiles) {
			return nil, fmt.Errorf("core: shard %d analyzed profiles %v, shard %d %v", byShard[0].Shard, profiles, p.Shard, p.Profiles)
		}
	}
	if len(opts.Profiles) > 0 && !equalStrings(opts.Profiles, profiles) {
		return nil, fmt.Errorf("core: partials analyzed profiles %v, options expect %v", profiles, opts.Profiles)
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("core: partials carry no profiles")
	}

	a := &Analysis{
		ds:             ds,
		filter:         filter,
		profiles:       profiles,
		rawURLIdentity: opts.TreeBuilder != nil && opts.TreeBuilder.RawURLIdentity,
		siteRank:       opts.SiteRank,
		metrics:        opts.Metrics,
	}
	defer opts.Metrics.Histogram("analysis.merge_ms").Time()()
	for _, p := range byShard {
		a.vetting.PagesSeen += p.Vetting.PagesSeen
		a.vetting.PagesVetted += p.Vetting.PagesVetted
		a.vetting.ExcludedMissing += p.Vetting.ExcludedMissing
		a.vetting.ExcludedFailed += p.Vetting.ExcludedFailed
		a.vetting.ExcludedDegraded += p.Vetting.ExcludedDegraded
		a.vetting.ExcludedBuild += p.Vetting.ExcludedBuild
	}

	merged, err := mergePages(byShard)
	if err != nil {
		return nil, err
	}
	opts.Metrics.Counter("analysis.pages.merged").Add(int64(len(merged)))

	// Rebuild trees and recompute comparisons in parallel; slot-indexed
	// results keep the merged page-key order regardless of scheduling.
	results := make([]*PageAnalysis, len(merged))
	errs := make([]error, len(merged))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(merged) {
		workers = len(merged)
	}
	rebuild := func(i int) {
		pp := merged[i]
		pa := &PageAnalysis{Key: pp.Key, Trees: make([]*tree.Tree, 0, len(pp.Trees))}
		for _, tr := range pp.Trees {
			t, err := tr.Tree()
			if err != nil {
				errs[i] = err
				return
			}
			pa.Trees = append(pa.Trees, t)
		}
		pa.Cmp = treediff.Compare(pa.Trees)
		results[i] = pa
	}
	if workers <= 1 {
		for i := range merged {
			rebuild(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(merged) {
						return
					}
					rebuild(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	a.pages = results
	if len(a.pages) == 0 && !opts.AllowEmpty {
		return nil, fmt.Errorf("core: no shard contributed a vetted page (%d seen, %d excluded)",
			a.vetting.PagesSeen, a.vetting.Excluded())
	}
	return a, nil
}

// mergePages k-way merges the shards' sorted page lists by (site, page
// URL), validating per-shard order and cross-shard disjointness.
func mergePages(byShard []*Partial) ([]PartialPage, error) {
	heads := make([]int, len(byShard))
	total := 0
	for _, p := range byShard {
		total += len(p.Pages)
	}
	out := make([]PartialPage, 0, total)
	less := func(a, b dataset.PageKey) bool {
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.PageURL < b.PageURL
	}
	for len(out) < total {
		best := -1
		for s, p := range byShard {
			if heads[s] >= len(p.Pages) {
				continue
			}
			if best == -1 || less(p.Pages[heads[s]].Key, byShard[best].Pages[heads[best]].Key) {
				best = s
			}
		}
		pick := byShard[best].Pages[heads[best]]
		heads[best]++
		if n := len(out); n > 0 {
			prev := out[n-1].Key
			if !less(prev, pick.Key) {
				if prev == pick.Key {
					return nil, fmt.Errorf("core: page %s/%s appears in more than one partial", pick.Key.Site, pick.Key.PageURL)
				}
				return nil, fmt.Errorf("core: partial of shard %d lists pages out of order near %s/%s",
					byShard[best].Shard, pick.Key.Site, pick.Key.PageURL)
			}
		}
		out = append(out, pick)
	}
	return out, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
