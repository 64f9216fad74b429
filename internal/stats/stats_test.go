package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("N=%d Mean=%v", s.N, s.Mean)
	}
	if !almostEqual(s.SD, 2.13809, 1e-4) {
		t.Errorf("SD = %v, want ~2.13809", s.SD)
	}
	if s.Min != 2 || s.Max != 9 || s.Median != 4.5 {
		t.Errorf("Min=%v Max=%v Median=%v", s.Min, s.Max, s.Median)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty summary not zero: %+v", z)
	}
}

func TestSummarizeInts(t *testing.T) {
	s := SummarizeInts([]int{1, 2, 3})
	if s.Mean != 2 || s.Median != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("unexpected: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median quantile = %v", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 = %v", q)
	}
}

func TestJaccard(t *testing.T) {
	a := ToSet([]string{"a", "b", "c"})
	b := ToSet([]string{"a", "c"})
	if j := Jaccard(a, b); !almostEqual(j, 2.0/3, 1e-12) {
		t.Errorf("J = %v, want 2/3", j)
	}
	if j := Jaccard(nil, nil); j != 1 {
		t.Errorf("J(∅,∅) = %v, want 1", j)
	}
	if j := Jaccard(a, nil); j != 0 {
		t.Errorf("J(A,∅) = %v, want 0", j)
	}
}

// TestPairwiseMeanJaccardPaperExample checks the worked example from
// Appendix D (Fig. 6): trees with depth-one children {a,b,c}, {a,c},
// {a,b,c} yield a mean pairwise Jaccard of (2/3 + 1 + 2/3)/3 ≈ .77.
func TestPairwiseMeanJaccardPaperExample(t *testing.T) {
	sets := []map[string]bool{
		ToSet([]string{"a", "b", "c"}),
		ToSet([]string{"a", "c"}),
		ToSet([]string{"a", "b", "c"}),
	}
	got := PairwiseMeanJaccard(sets)
	want := (2.0/3 + 1 + 2.0/3) / 3
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("mean pairwise J = %v, want %v", got, want)
	}
	// All-node comparison from the same appendix: (6/7 + 5/7 + 5/6)/3 = .8
	all := []map[string]bool{
		ToSet([]string{"a", "b", "c", "d", "e", "x", "y"}),
		ToSet([]string{"a", "c", "d", "e", "x", "y"}),
		ToSet([]string{"a", "c", "d", "e", "y"}),
	}
	got = PairwiseMeanJaccard(all)
	want = (6.0/7 + 5.0/7 + 5.0/6) / 3
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("all-node mean pairwise J = %v, want %v", got, want)
	}
	// Parent of node e: {d}, {d}, absent → (1 + 0 + 0)/3 ≈ .3
	parents := []map[string]bool{
		ToSet([]string{"d"}),
		ToSet([]string{"d"}),
		nil,
	}
	got = PairwiseMeanJaccard(parents)
	want = 1.0 / 3
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("parent mean pairwise J = %v, want %v", got, want)
	}
}

func TestPairwiseMeanJaccardDegenerate(t *testing.T) {
	if PairwiseMeanJaccard(nil) != 1 {
		t.Error("no sets should yield 1")
	}
	if PairwiseMeanJaccard([]map[string]bool{ToSet([]string{"a"})}) != 1 {
		t.Error("single set should yield 1")
	}
}

func TestCategorize(t *testing.T) {
	cases := []struct {
		sim  float64
		want SimilarityCategory
	}{
		{1, SimilarityHigh}, {0.8, SimilarityHigh}, {0.79, SimilarityMedium},
		{0.3, SimilarityMedium}, {0.29, SimilarityLow}, {0, SimilarityLow},
	}
	for _, c := range cases {
		if got := Categorize(c.sim); got != c.want {
			t.Errorf("Categorize(%v) = %v, want %v", c.sim, got, c.want)
		}
	}
}

func TestRankData(t *testing.T) {
	ranks, ties := rankData([]float64{1, 2, 2, 3})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
	if len(ties) != 1 || ties[0] != 2 {
		t.Errorf("ties = %v, want [2]", ties)
	}
}

// Property: ranks always sum to n(n+1)/2.
func TestRankSumProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		ranks, _ := rankData(xs)
		var sum float64
		for _, r := range ranks {
			sum += r
		}
		n := float64(len(xs))
		return almostEqual(sum, n*(n+1)/2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWilcoxonSignedRank(t *testing.T) {
	// Classic textbook example; W = 18, p ≈ 0.64 (normal approximation
	// with tie and continuity corrections).
	x := []float64{125, 115, 130, 140, 140, 115, 140, 125, 140, 135}
	y := []float64{110, 122, 125, 120, 140, 124, 123, 137, 135, 145}
	r, err := WilcoxonSignedRank(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r.Statistic != 18 {
		t.Errorf("W = %v, want 18", r.Statistic)
	}
	if r.N != 9 {
		t.Errorf("N = %d, want 9 (zero difference dropped)", r.N)
	}
	if r.P < 0.60 || r.P > 0.68 {
		t.Errorf("p = %v, want ≈ 0.64", r.P)
	}
	if r.Significant() {
		t.Error("should not be significant")
	}
}

func TestWilcoxonErrors(t *testing.T) {
	if _, err := WilcoxonSignedRank([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := WilcoxonSignedRank([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("all-zero differences should error")
	}
}

func TestWilcoxonDetectsShift(t *testing.T) {
	x := make([]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) + 3 + float64(i%3) // consistent positive shift
	}
	r, err := WilcoxonSignedRank(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Significant() {
		t.Errorf("consistent shift not detected: p = %v", r.P)
	}
}

func TestMannWhitneyU(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{6, 7, 8, 9, 10}
	r, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Statistic != 0 {
		t.Errorf("U = %v, want 0", r.Statistic)
	}
	if !almostEqual(r.P, 0.0122, 0.002) {
		t.Errorf("p = %v, want ≈ 0.0122", r.P)
	}
	if !r.Significant() {
		t.Error("complete separation should be significant")
	}
}

func TestMannWhitneySymmetric(t *testing.T) {
	a := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	b := []float64{2, 7, 1, 8, 2, 8, 1, 8}
	r1, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MannWhitneyU(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r1.P, r2.P, 1e-12) || !almostEqual(r1.Statistic, r2.Statistic, 1e-12) {
		t.Errorf("not symmetric: %+v vs %+v", r1, r2)
	}
}

func TestMannWhitneyNoDifference(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	r, err := MannWhitneyU(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Significant() {
		t.Errorf("identical samples significant: p = %v", r.P)
	}
}

func TestKruskalWallis(t *testing.T) {
	// H = 7.2 with df = 2 → p = exp(-3.6) ≈ 0.0273.
	r, err := KruskalWallis(
		[]float64{1, 2, 3},
		[]float64{4, 5, 6},
		[]float64{7, 8, 9},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r.Statistic, 7.2, 1e-9) {
		t.Errorf("H = %v, want 7.2", r.Statistic)
	}
	if !almostEqual(r.P, math.Exp(-3.6), 1e-6) {
		t.Errorf("p = %v, want %v", r.P, math.Exp(-3.6))
	}
	if r.DF != 2 {
		t.Errorf("df = %d, want 2", r.DF)
	}
}

func TestKruskalWallisTies(t *testing.T) {
	r, err := KruskalWallis(
		[]float64{1, 1, 2, 2},
		[]float64{2, 2, 3, 3},
		[]float64{3, 3, 4, 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if r.Statistic <= 0 {
		t.Errorf("H = %v, want > 0", r.Statistic)
	}
}

func TestKruskalWallisErrors(t *testing.T) {
	if _, err := KruskalWallis([]float64{1, 2, 3}); err == nil {
		t.Error("one group should error")
	}
	if _, err := KruskalWallis([]float64{1, 2}, nil); err == nil {
		t.Error("empty group should error")
	}
}

func TestEpsilonSquared(t *testing.T) {
	r := TestResult{Statistic: 7.2, N: 9}
	if e := EpsilonSquared(r); !almostEqual(e, 0.9, 1e-12) {
		t.Errorf("ε² = %v, want 0.9", e)
	}
	if e := EpsilonSquared(TestResult{N: 1}); e != 0 {
		t.Errorf("degenerate ε² = %v, want 0", e)
	}
}

func TestNormalSF(t *testing.T) {
	if p := normalSF(1.959963985); !almostEqual(p, 0.025, 1e-6) {
		t.Errorf("SF(1.96) = %v, want 0.025", p)
	}
	if p := normalSF(0); !almostEqual(p, 0.5, 1e-12) {
		t.Errorf("SF(0) = %v, want 0.5", p)
	}
}

// Property: for df = 2 the chi-square survival function is exactly
// exp(-x/2), a closed form we can check the incomplete gamma against.
func TestChiSquareSFClosedForm(t *testing.T) {
	f := func(raw float64) bool {
		x := math.Abs(raw)
		if math.IsNaN(x) || math.IsInf(x, 0) || x > 500 {
			return true
		}
		got := chiSquareSF(x, 2)
		want := math.Exp(-x / 2)
		return almostEqual(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Spot checks for other dfs (reference values from standard tables).
	if p := chiSquareSF(3.841, 1); !almostEqual(p, 0.05, 5e-4) {
		t.Errorf("SF(3.841, 1) = %v, want ~0.05", p)
	}
	if p := chiSquareSF(16.919, 9); !almostEqual(p, 0.05, 5e-4) {
		t.Errorf("SF(16.919, 9) = %v, want ~0.05", p)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	for _, v := range []float64{0.05, 0.05, 0.95, 1.5, -1} {
		h.Add(v)
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Counts[0] != 3 { // two 0.05s plus the clamped -1
		t.Errorf("bin0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[9] != 2 { // 0.95 plus the clamped 1.5
		t.Errorf("bin9 = %d, want 2", h.Counts[9])
	}
	rf := h.RelativeFrequencies()
	var sum float64
	for _, f := range rf {
		sum += f
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Errorf("relative frequencies sum to %v", sum)
	}
	if c := h.BinCenter(0); !almostEqual(c, 0.05, 1e-12) {
		t.Errorf("BinCenter(0) = %v", c)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid config")
		}
	}()
	NewHistogram(1, 0, 5)
}

func TestHistogram2D(t *testing.T) {
	h := NewHistogram2D()
	h.Add(3, 44)
	h.Add(3, 44)
	h.Add(-1, 2)
	if h.Count(3, 44) != 2 || h.Count(0, 2) != 1 {
		t.Errorf("counts wrong: %d %d", h.Count(3, 44), h.Count(0, 2))
	}
	if h.MaxX() != 3 || h.MaxY() != 44 || h.Total() != 3 {
		t.Errorf("MaxX=%d MaxY=%d Total=%d", h.MaxX(), h.MaxY(), h.Total())
	}
}

func BenchmarkPairwiseMeanJaccard(b *testing.B) {
	sets := make([]map[string]bool, 5)
	for i := range sets {
		s := make(map[string]bool)
		for j := 0; j < 50; j++ {
			if (j+i)%7 != 0 {
				s["node-"+string(rune('a'+j%26))+string(rune('0'+j/26))] = true
			}
		}
		sets[i] = s
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PairwiseMeanJaccard(sets)
	}
}

func BenchmarkKruskalWallis(b *testing.B) {
	groups := make([][]float64, 5)
	for i := range groups {
		g := make([]float64, 1000)
		for j := range g {
			g[j] = float64((j*31+i*17)%97) / 97
		}
		groups[i] = g
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KruskalWallis(groups...); err != nil {
			b.Fatal(err)
		}
	}
}
