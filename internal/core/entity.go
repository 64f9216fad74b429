package core

import (
	"slices"

	"webmeasure/internal/stats"
	"webmeasure/internal/tree"
	"webmeasure/internal/urlutil"
)

// EntityReport compares two granularities for third-party analysis: the
// set of third-party *domains* a page loads versus the set of
// *organizations* behind them (an entity map, tracker-radar-style). An
// organization often owns several domains; when intra-organization churn
// dominates (a sync partner swapped for a sister domain), entity-level
// results are more stable — a practical lever for the paper's
// comparability problem.
type EntityReport struct {
	// DomainSim / EntitySim summarize per-page pairwise-mean Jaccard of
	// third-party domain sets and entity sets across the profiles.
	DomainSim stats.Summary
	EntitySim stats.Summary
	// DistinctDomains / DistinctEntities across the whole dataset.
	DistinctDomains  int
	DistinctEntities int
	// AdvantageShare is the share of pages where entity-level similarity
	// strictly exceeds domain-level similarity.
	AdvantageShare float64
}

// EntityStability computes the domain-vs-entity stability comparison.
// entityOf maps a registrable domain to its organization name ("" = no
// organization: the domain stands for itself).
func (a *Analysis) EntityStability(entityOf func(domain string) string) EntityReport {
	var rep EntityReport
	var domainSims, entitySims []float64
	advantage := 0
	allDomains := map[string]bool{}
	allEntities := map[string]bool{}

	for _, pa := range a.pages {
		domainSets := make([][]string, len(pa.Trees))
		entitySets := make([][]string, len(pa.Trees))
		for ti, t := range pa.Trees {
			var ds, es []string
			for _, n := range t.Nodes() {
				if n.Party != tree.ThirdParty {
					continue
				}
				domain := urlutil.Site(n.Key)
				if domain == "" {
					continue
				}
				ds = append(ds, domain)
				allDomains[domain] = true
				entity := entityOf(domain)
				if entity == "" {
					entity = domain
				}
				es = append(es, entity)
				allEntities[entity] = true
			}
			slices.Sort(ds)
			slices.Sort(es)
			domainSets[ti] = ds
			entitySets[ti] = es
		}
		dSim := stats.PairwiseMeanJaccardSorted(domainSets)
		eSim := stats.PairwiseMeanJaccardSorted(entitySets)
		domainSims = append(domainSims, dSim)
		entitySims = append(entitySims, eSim)
		if eSim > dSim {
			advantage++
		}
	}
	rep.DomainSim = stats.Summarize(domainSims)
	rep.EntitySim = stats.Summarize(entitySims)
	rep.DistinctDomains = len(allDomains)
	rep.DistinctEntities = len(allEntities)
	if len(domainSims) > 0 {
		rep.AdvantageShare = float64(advantage) / float64(len(domainSims))
	}
	return rep
}
