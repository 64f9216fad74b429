package stats

import "math"

// CliffsDelta computes Cliff's δ, a non-parametric effect size for two
// independent samples: the probability a value from a exceeds one from b,
// minus the reverse. δ ∈ [-1, 1]; |δ| < .147 is conventionally negligible,
// < .33 small, < .474 medium, else large. Complements the Mann-Whitney U
// test's p-value with a magnitude, the practice Appendix F's ε² discussion
// calls for.
func CliffsDelta(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrInsufficientData
	}
	// O((n+m) log(n+m)) via merged ranking instead of the naive O(nm).
	ranks, _ := rankData(append(append([]float64(nil), a...), b...))
	na, nb := float64(len(a)), float64(len(b))
	var ra float64
	for i := 0; i < len(a); i++ {
		ra += ranks[i]
	}
	// U statistic for a over b, then δ = 2U/(na·nb) − 1.
	u := ra - na*(na+1)/2
	return 2*u/(na*nb) - 1, nil
}

// DeltaMagnitude names the conventional |δ| interpretation bucket.
func DeltaMagnitude(delta float64) string {
	switch d := math.Abs(delta); {
	case d < 0.147:
		return "negligible"
	case d < 0.33:
		return "small"
	case d < 0.474:
		return "medium"
	default:
		return "large"
	}
}
