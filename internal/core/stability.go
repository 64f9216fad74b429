package core

import (
	"sort"

	"webmeasure/internal/measurement"
	"webmeasure/internal/stats"
	"webmeasure/internal/tree"
	"webmeasure/internal/treediff"
)

// The paper's first takeaway asks for a metric that assesses the expected
// "measurement fluctuation" of a Web experiment — how much of what one
// setup observes would a repetition reproduce? StabilityReport implements
// such a metric on top of the cross-comparison: per-page stability scores,
// the expected discovery rate of an additional measurement, and the
// stability decomposition by node category that tells a study designer
// which phenomena are safe to measure once (§4.4, §8 takeaway 1).

// StabilityReport quantifies an experiment's expected fluctuation.
type StabilityReport struct {
	// PageStability summarizes per-page stability: the mean share of a
	// tree's nodes that a second, simultaneously captured tree also
	// contains (pairwise-mean Jaccard of node sets). 1 = a measurement
	// reproduces itself perfectly.
	PageStability stats.Summary
	// Categories counts pages by similarity category of their stability.
	HighPages, MediumPages, LowPages int

	// ExpectedDiscovery estimates the share of *new* node mass one more
	// measurement would surface, via the Good–Turing estimator on
	// presence counts: nodes seen by exactly one of k profiles divided by
	// all node observations.
	ExpectedDiscovery float64

	// ByCategory decomposes stability by node population; a study whose
	// phenomenon lives in a low-stability category needs repeated
	// measurements (§8 takeaway 3: know whether the phenomenon is in the
	// dynamic or static part of a page).
	ByCategory []CategoryStability
}

// CategoryStability is one node population's stability.
type CategoryStability struct {
	Category string
	// MeanPresence is the average share of profiles observing the node.
	MeanPresence float64
	// ChildSim is the population's mean child similarity.
	ChildSim float64
	Nodes    int
}

// Stability computes the fluctuation metric over the vetted pages.
func (a *Analysis) Stability() StabilityReport {
	defer a.phaseTimer("stability")()
	var rep StabilityReport
	var pageScores []float64

	type agg struct {
		presence []float64
		childSim []float64
	}
	categories := map[string]*agg{}
	bump := func(cat string, ni *treediff.NodeInfo, trees int) {
		g := categories[cat]
		if g == nil {
			g = &agg{}
			categories[cat] = g
		}
		g.presence = append(g.presence, float64(ni.Presence)/float64(trees))
		if ni.HasChildAnywhere && ni.Presence >= 2 {
			g.childSim = append(g.childSim, ni.ChildSim)
		}
	}

	var singletons, observations int

	for _, pa := range a.pages {
		k := len(pa.Trees)
		var pairSum float64
		pairs := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				pairSum += pa.Cmp.PairwisePresence(i, j)
				pairs++
			}
		}
		if pairs > 0 {
			score := pairSum / float64(pairs)
			pageScores = append(pageScores, score)
			switch stats.Categorize(score) {
			case stats.SimilarityHigh:
				rep.HighPages++
			case stats.SimilarityMedium:
				rep.MediumPages++
			default:
				rep.LowPages++
			}
		}

		for _, ni := range pa.Cmp.Nodes[1:] {
			observations += ni.Presence
			if ni.Presence == 1 {
				singletons++
			}
			bump(categoryOf(ni), ni, k)
		}
	}

	rep.PageStability = stats.Summarize(pageScores)
	if observations > 0 {
		rep.ExpectedDiscovery = float64(singletons) / float64(observations)
	}
	for cat, g := range categories {
		rep.ByCategory = append(rep.ByCategory, CategoryStability{
			Category:     cat,
			MeanPresence: stats.Mean(g.presence),
			ChildSim:     stats.Mean(g.childSim),
			Nodes:        len(g.presence),
		})
	}
	sort.Slice(rep.ByCategory, func(i, j int) bool {
		if rep.ByCategory[i].MeanPresence != rep.ByCategory[j].MeanPresence {
			return rep.ByCategory[i].MeanPresence > rep.ByCategory[j].MeanPresence
		}
		return rep.ByCategory[i].Category < rep.ByCategory[j].Category
	})
	return rep
}

// categoryOf buckets a node for the stability decomposition.
func categoryOf(ni *treediff.NodeInfo) string {
	party := "first-party"
	if ni.Party == tree.ThirdParty {
		party = "third-party"
	}
	switch {
	case ni.Tracking:
		return party + " tracking"
	case ni.Type == measurement.TypeSubFrame:
		return party + " subframe"
	case ni.Type.CanHaveChildren():
		return party + " active" // scripts, stylesheets, XHR, sockets
	default:
		return party + " static" // images, fonts, text, media
	}
}

// RequiredMeasurements estimates, from the presence distribution, how many
// repeated measurements are needed so that the expected share of
// still-unseen node mass drops below epsilon. It extrapolates the
// Good–Turing discovery rate geometrically: each further measurement
// uncovers roughly the same *fraction* of the remaining unseen mass as the
// last one did. A crude planning tool for §8 takeaway 4 ("use different
// profiles and execute multiple measurements").
func (r StabilityReport) RequiredMeasurements(epsilon float64) int {
	if epsilon <= 0 {
		epsilon = 0.01
	}
	d := r.ExpectedDiscovery
	if d <= 0 {
		return 1
	}
	if d >= 1 {
		d = 0.99
	}
	n := 1
	remaining := d
	for remaining > epsilon && n < 100 {
		remaining *= d
		n++
	}
	return n
}
