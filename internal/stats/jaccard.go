package stats

// Jaccard returns the Jaccard index J(A,B) = |A∩B| / |A∪B| of two string
// sets. By the paper's convention two empty sets are perfectly similar
// (J = 1): they agree that nothing was loaded.
//
// Jaccard and PairwiseMeanJaccard are the map-based reference kernels. The
// analysis computes every similarity with JaccardSorted and
// PairwiseMeanJaccardSorted; these stay only as the oracle that the stats
// property tests and treediff's reference implementation compare against.
func Jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for k := range small {
		if large[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// PairwiseMeanJaccard implements the paper's multi-set similarity: the
// arithmetic mean of the Jaccard index over all unordered pairs of the given
// sets (§3.2: "To compare five sets, we computed the pairwise similarity
// between all sets and used the arithmetic mean value"). With fewer than two
// sets it returns 1 (a single observation is trivially self-consistent).
// It is the test reference for PairwiseMeanJaccardSorted (see Jaccard).
func PairwiseMeanJaccard(sets []map[string]bool) float64 {
	if len(sets) < 2 {
		return 1
	}
	var sum float64
	var n int
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			sum += Jaccard(sets[i], sets[j])
			n++
		}
	}
	return sum / float64(n)
}

// ToSet converts a slice into a set.
func ToSet(xs []string) map[string]bool {
	s := make(map[string]bool, len(xs))
	for _, x := range xs {
		s[x] = true
	}
	return s
}

// SimilarityCategory is the paper's three-way interpretation bucket for
// similarity scores (§3.2, following Demir et al. [14]).
type SimilarityCategory string

// Similarity categories: high (≥ 0.8), medium (0.3 ≤ s < 0.8), low (< 0.3).
const (
	SimilarityHigh   SimilarityCategory = "high"
	SimilarityMedium SimilarityCategory = "med."
	SimilarityLow    SimilarityCategory = "low"
)

// Categorize maps a similarity score to its category.
func Categorize(sim float64) SimilarityCategory {
	switch {
	case sim >= 0.8:
		return SimilarityHigh
	case sim >= 0.3:
		return SimilarityMedium
	default:
		return SimilarityLow
	}
}
