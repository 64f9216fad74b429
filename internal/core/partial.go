package core

// This file is the merge half of the distributed shard-and-merge pipeline.
// A shard worker analyzes its slice of the page-key space and exports a
// Partial: the vetted pages' trees in wire form and their attribution
// scores, the vetting tally, the raw visits, and optionally the worker's
// metrics dump and trace export. The coordinator decodes one Partial per
// shard and NewFromPartials feeds each into one Stream, the same one every
// other input goes through: the stream rebuilds each page's trees,
// recomputes its cross-comparison, and sorts the union into page-key order
// at Finish, so the merged Analysis renders report, JSON, and CSV
// byte-identical to a single-process run over the whole dataset.

import (
	"encoding/json"
	"fmt"

	"webmeasure/internal/dataset"
	"webmeasure/internal/measurement"
	"webmeasure/internal/metrics"
	"webmeasure/internal/trace"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
)

// PartialSchema versions the Partial wire form.
const PartialSchema = 2

// PartialPage is one vetted page in wire form: its key, its trees in the
// analysis's profile order, and the attribution score the shard's
// per-page pass computed. The cross-comparison is not shipped — it is
// deterministic in the trees and recomputed at merge time.
type PartialPage struct {
	Key         dataset.PageKey   `json:"key"`
	Trees       []tree.Record     `json:"trees"`
	Attribution AttributionReport `json:"attribution"`
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
		pp := PartialPage{Key: pa.Key, Trees: make([]tree.Record, 0, len(pa.Trees)), Attribution: pa.Attribution}
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
// ds is the union dataset (the coordinator rebuilds it from the partials'
// visits), which the Analysis returns from Dataset; the tables read the
// partials' own visits as each is added. opts plays the same role
// as in NewStream, and opts.Context cancels the merge between pages. No filter
// list is needed: the shards' tree records already carry each node's
// tracking flag. Each partial feeds one Stream, which rebuilds the pages'
// trees from their wire records, re-compares them, and sorts the union
// into page-key order at Finish, so the result is indistinguishable from
// one Stream fed the union dataset (Stream.AddDataset).
func NewFromPartials(ds *dataset.Dataset, opts Options, plan ShardPlan, parts []*Partial) (*Analysis, error) {
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

	defer opts.Metrics.Histogram("analysis.merge_ms").Time()()
	opts.Profiles = profiles
	s, err := NewStream(ds, nil, opts)
	if err != nil {
		return nil, err
	}
	for _, p := range byShard {
		if err := s.addPartial(p); err != nil {
			return nil, err
		}
	}
	opts.Metrics.Counter("analysis.pages.merged").Add(int64(len(s.a.pages)))
	return s.Finish()
}

// addPartial adds one shard's vetted pages and vetting tally: it rebuilds
// each page's trees from their records and re-compares them on the page
// pool, and keeps each page's attribution score as the shard computed it.
// The crawl summary counts the shard's visits, and each vetted page
// captures its own from them. It publishes no per-page counter, since the
// shard's metrics dump already holds them.
func (s *Stream) addPartial(p *Partial) error {
	groups := dataset.GroupVisits(p.Visits)
	s.a.tally.add(groups, p.Visits)
	byKey := make(map[dataset.PageKey]*dataset.PageVisits, len(groups))
	for _, pv := range groups {
		byKey[pv.Key] = pv
	}
	pages := make([]*PageAnalysis, len(p.Pages))
	errs := make([]error, len(p.Pages))
	forEachPage(s.ctx, s.opts.Workers, len(p.Pages), func(i int) {
		pp := p.Pages[i]
		pa := &PageAnalysis{Key: pp.Key, Trees: make([]*tree.Tree, len(pp.Trees)), Attribution: pp.Attribution,
			visits: captureVisits(byKey[pp.Key], s.w.profiles)}
		for j, rec := range pp.Trees {
			if pa.Trees[j], errs[i] = rec.Tree(); errs[i] != nil {
				return
			}
		}
		pa.Cmp = treediff.Compare(pa.Trees)
		pages[i] = pa
	})
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("core: analysis canceled: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.a.vetting.add(p.Vetting)
	s.a.pages = append(s.a.pages, pages...)
	return nil
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
