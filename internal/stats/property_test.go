package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Property-based suite for the similarity primitives: rather than fixed
// examples, these tests check the algebraic invariants of the Jaccard
// index over randomized inputs with a fixed seed, so a regression in the
// set arithmetic cannot hide behind a lucky example.

// randSet draws a set of up to maxLen elements from a small token pool,
// so random pairs overlap often enough to exercise the intersection path.
func randSet(rng *rand.Rand, maxLen int) map[string]bool {
	n := rng.Intn(maxLen + 1)
	s := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		s[fmt.Sprintf("e%d", rng.Intn(2*maxLen))] = true
	}
	return s
}

func cloneSet(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func TestJaccardBoundsAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randSet(rng, 12), randSet(rng, 12)
		j := Jaccard(a, b)
		if j < 0 || j > 1 || math.IsNaN(j) {
			t.Fatalf("J out of [0,1]: %v for %v vs %v", j, a, b)
		}
		if back := Jaccard(b, a); back != j {
			t.Fatalf("J not symmetric: %v vs %v", j, back)
		}
	}
}

func TestJaccardIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a := randSet(rng, 12)
		if j := Jaccard(a, cloneSet(a)); j != 1 {
			t.Fatalf("J(A,A) = %v for %v", j, a)
		}
	}
}

func TestJaccardEmptyConvention(t *testing.T) {
	// Two empty observations agree that nothing was loaded: J = 1.
	if j := Jaccard(nil, nil); j != 1 {
		t.Errorf("J(∅,∅) = %v, want 1", j)
	}
	if j := Jaccard(map[string]bool{}, nil); j != 1 {
		t.Errorf("J({},∅) = %v, want 1", j)
	}
	// An empty set against a non-empty one shares nothing: J = 0.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		b := randSet(rng, 12)
		if len(b) == 0 {
			continue
		}
		if j := Jaccard(nil, b); j != 0 {
			t.Fatalf("J(∅,B) = %v for %v", j, b)
		}
	}
}

func TestJaccardDisjointAndSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		a := randSet(rng, 10)
		// Disjoint translate: prefixed copies share nothing.
		b := make(map[string]bool, len(a))
		for k := range a {
			b["x"+k] = true
		}
		if len(a) > 0 {
			if j := Jaccard(a, b); j != 0 {
				t.Fatalf("disjoint sets J = %v", j)
			}
		}
		// Subset: J(A,S) = |S|/|A| for S ⊆ A.
		sub := make(map[string]bool)
		for k := range a {
			if rng.Intn(2) == 0 {
				sub[k] = true
			}
		}
		if len(a) > 0 {
			want := float64(len(sub)) / float64(len(a))
			if j := Jaccard(a, sub); math.Abs(j-want) > 1e-12 {
				t.Fatalf("subset J = %v, want %v", j, want)
			}
		}
	}
}

// TestJaccardSharedElementMonotone is the metamorphic core: adding the
// same new element to both sets never decreases their similarity, and
// adding it to only one never increases it.
func TestJaccardSharedElementMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		a, b := randSet(rng, 12), randSet(rng, 12)
		j := Jaccard(a, b)

		a2, b2 := cloneSet(a), cloneSet(b)
		shared := fmt.Sprintf("new%d", i)
		a2[shared] = true
		b2[shared] = true
		if j2 := Jaccard(a2, b2); j2 < j-1e-12 {
			t.Fatalf("shared element decreased J: %v -> %v (%v vs %v)", j, j2, a, b)
		}

		a3 := cloneSet(a)
		a3[fmt.Sprintf("only%d", i)] = true
		if j3 := Jaccard(a3, b); j3 > j+1e-12 {
			t.Fatalf("one-sided element increased J: %v -> %v (%v vs %v)", j, j3, a, b)
		}
	}
}

func TestPairwiseMeanJaccardProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		sets := make([]map[string]bool, 2+rng.Intn(5))
		for j := range sets {
			sets[j] = randSet(rng, 10)
		}
		m := PairwiseMeanJaccard(sets)
		if m < 0 || m > 1 || math.IsNaN(m) {
			t.Fatalf("mean out of [0,1]: %v", m)
		}
		// Permutation invariance: the mean over unordered pairs cannot
		// depend on the slice order.
		perm := make([]map[string]bool, len(sets))
		for j, p := range rng.Perm(len(sets)) {
			perm[j] = sets[p]
		}
		if pm := PairwiseMeanJaccard(perm); math.Abs(pm-m) > 1e-12 {
			t.Fatalf("mean not permutation invariant: %v vs %v", m, pm)
		}
		// Identical sets are perfectly similar.
		same := make([]map[string]bool, len(sets))
		for j := range same {
			same[j] = cloneSet(sets[0])
		}
		if sm := PairwiseMeanJaccard(same); sm != 1 {
			t.Fatalf("identical sets mean = %v", sm)
		}
	}
	// Degenerate inputs are trivially self-consistent.
	if PairwiseMeanJaccard(nil) != 1 || PairwiseMeanJaccard([]map[string]bool{{"a": true}}) != 1 {
		t.Error("fewer than two sets must yield 1")
	}
}

func TestCategorizeBoundaries(t *testing.T) {
	cases := map[float64]SimilarityCategory{
		1.0:  SimilarityHigh,
		0.8:  SimilarityHigh,
		0.79: SimilarityMedium,
		0.3:  SimilarityMedium,
		0.29: SimilarityLow,
		0.0:  SimilarityLow,
	}
	for sim, want := range cases {
		if got := Categorize(sim); got != want {
			t.Errorf("Categorize(%v) = %q, want %q", sim, got, want)
		}
	}
	// Every score lands in exactly one of the three buckets.
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		switch Categorize(rng.Float64()) {
		case SimilarityHigh, SimilarityMedium, SimilarityLow:
		default:
			t.Fatal("score fell outside the three categories")
		}
	}
}
