package tree

import (
	"sync"

	"webmeasure/internal/measurement"
	"webmeasure/internal/urlutil"
)

// AttributionAccuracy evaluates the paper's parent-attribution heuristics
// (§3.2) against the simulator's ground truth. §6 concedes two lossy
// steps — query-value stripping can merge distinct resources, and
// first-parent-wins merging can mis-attribute later occurrences — and
// this report measures how often they bite.
type AttributionAccuracy struct {
	// Attributable is the number of non-navigation requests carrying a
	// ground-truth parent.
	Attributable int
	// Correct counts nodes whose reconstructed parent equals the
	// normalized ground-truth parent.
	Correct int
	// RootFallbacks counts nodes that fell back to the root although
	// their true parent was a different resource.
	RootFallbacks int
	// MergeArtifacts counts requests that merged into an existing node
	// whose recorded parent differs from this request's true parent (the
	// §6 collapse).
	MergeArtifacts int
}

// Accuracy returns the share of attributable requests whose parent was
// reconstructed correctly (1 when nothing was attributable).
func (r AttributionAccuracy) Accuracy() float64 {
	if r.Attributable == 0 {
		return 1
	}
	return float64(r.Correct) / float64(r.Attributable)
}

// EvaluateAttribution builds the visit's tree and scores it
// (ScoreAttribution).
func (b *Builder) EvaluateAttribution(v *measurement.Visit) (AttributionAccuracy, error) {
	t, err := b.Build(v)
	if err != nil {
		return AttributionAccuracy{}, err
	}
	return b.ScoreAttribution(t, v, nil), nil
}

// seenPool recycles ScoreAttribution's per-visit set of keys already
// scored. The analysis scores every vetted visit, concurrently across
// pages, so the pool hands each call a cleared map instead of a new one.
var seenPool = sync.Pool{New: func() any { return make(map[string]bool) }}

// ScoreAttribution scores every request's reconstructed parent in t — the
// tree b built from v — against measurement.Request.TrueParentURL. keys,
// when non-nil, resolves node identities through a pre-interned key cache
// (see BuildKeyed) instead of re-normalizing every URL; the result is
// identical either way.
func (b *Builder) ScoreAttribution(t *Tree, v *measurement.Visit, keys *urlutil.KeyCache) AttributionAccuracy {
	var rep AttributionAccuracy
	lookup := b.key
	if keys != nil && !b.RawURLIdentity {
		lookup = func(raw string) (string, bool) {
			if key, _, stripped, ok := keys.Lookup(raw); ok {
				return key, stripped
			}
			return b.key(raw)
		}
	}
	rootKey := t.Root.Key
	seen := seenPool.Get().(map[string]bool)
	defer func() {
		clear(seen)
		seenPool.Put(seen)
	}()
	seen[rootKey] = true
	for _, req := range v.Requests {
		key, _ := lookup(req.URL)
		if key == rootKey || req.TrueParentURL == "" {
			continue
		}
		rep.Attributable++
		trueKey, _ := lookup(req.TrueParentURL)
		node := t.Node(key)
		if node == nil || node.Parent == nil {
			continue
		}
		if seen[key] {
			// A later occurrence merged into an existing node; its stored
			// parent reflects the first occurrence.
			if node.Parent.Key != trueKey {
				rep.MergeArtifacts++
			} else {
				rep.Correct++
			}
			continue
		}
		seen[key] = true
		switch {
		case node.Parent.Key == trueKey:
			rep.Correct++
		case node.Parent.Key == rootKey:
			rep.RootFallbacks++
		}
	}
	return rep
}
