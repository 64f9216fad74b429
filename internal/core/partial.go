package core

// This file is the wire half of the distributed pipeline. A shard worker
// crawls its slice of the page-key space and ships a Partial: the slice's
// visits in the columnar format, plus the worker's metrics dump and trace
// export. The coordinator decodes one Partial per shard, UnionPartials
// checks the set and returns the union of their visits, and the union is
// analyzed once, through the same Stream every other input goes through,
// so the report, JSON, and CSV are byte-identical to a single-process run
// over the whole dataset.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"webmeasure/internal/dataset"
	"webmeasure/internal/metrics"
	"webmeasure/internal/trace"
)

// PartialSchema versions the Partial wire form.
const PartialSchema = 3

// Partial is one shard's contribution to a distributed analysis.
type Partial struct {
	Schema int       `json:"schema"`
	Plan   ShardPlan `json:"plan"`
	// Shard is this partial's 0-based shard index under Plan.
	Shard int `json:"shard"`
	// Profiles names the profiles the shard crawled, in analysis order.
	Profiles []string `json:"profiles"`
	// Dataset is the shard's visits in the columnar format, in crawl
	// order (dataset.ColSiteWriter output).
	Dataset []byte `json:"dataset"`
	// Metrics is the shard worker's registry dump; the coordinator merges
	// the dumps so page-granular crawl counters sum exactly over shards.
	Metrics *metrics.Dump `json:"metrics,omitempty"`
	// Traces is the shard worker's trace export; traces are page-granular
	// and shards partition pages, so shard trace sets are disjoint.
	Traces []trace.TraceData `json:"traces,omitempty"`
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

// UnionPartials checks a partial set against the coordinator's plan and
// profiles and returns the union of the partials' visits, shard by shard,
// each shard's in its crawl order. The set must hold exactly one partial
// per shard of plan, each following plan and crawled with profiles. Every
// partial's dataset must decode whole, and the plan must assign each of
// its visits to the partial's own shard: partials arrive from peers, and
// a visit on the wrong side would be analyzed twice or under the wrong
// shard's telemetry.
func UnionPartials(plan ShardPlan, profiles []string, parts []*Partial) (*dataset.Dataset, error) {
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
		if !slices.Equal(p.Profiles, profiles) {
			return nil, fmt.Errorf("core: shard %d crawled profiles %v, coordinator expects %v", p.Shard, p.Profiles, profiles)
		}
		byShard[p.Shard] = p
	}
	union := dataset.New()
	for _, p := range byShard {
		ds, err := dataset.ReadCol(bytes.NewReader(p.Dataset))
		if err != nil {
			return nil, fmt.Errorf("core: dataset of shard %d: %w", p.Shard, err)
		}
		for _, v := range ds.Visits() {
			if got := plan.Assign(dataset.PageKey{Site: v.Site, PageURL: v.PageURL}); got != p.Shard {
				return nil, fmt.Errorf("core: shard %d ships a visit to %s/%s, which %s assigns to shard %d",
					p.Shard, v.Site, v.PageURL, plan, got)
			}
			union.Add(v)
		}
	}
	return union, nil
}
