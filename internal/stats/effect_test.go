package stats

import (
	"testing"
	"testing/quick"
)

func TestCliffsDelta(t *testing.T) {
	// Complete separation: δ = 1.
	d, err := CliffsDelta([]float64{5, 6, 7}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 1, 1e-12) {
		t.Errorf("δ = %v, want 1", d)
	}
	// Reversed: δ = -1.
	d, _ = CliffsDelta([]float64{1, 2, 3}, []float64{5, 6, 7})
	if !almostEqual(d, -1, 1e-12) {
		t.Errorf("δ = %v, want -1", d)
	}
	// Identical samples: δ = 0 (ties split evenly).
	d, _ = CliffsDelta([]float64{1, 2, 3}, []float64{1, 2, 3})
	if !almostEqual(d, 0, 1e-12) {
		t.Errorf("δ = %v, want 0", d)
	}
	// Hand-computed: a={1,3}, b={2}: pairs (1<2 → -1), (3>2 → +1) → δ=0.
	d, _ = CliffsDelta([]float64{1, 3}, []float64{2})
	if !almostEqual(d, 0, 1e-12) {
		t.Errorf("δ = %v, want 0", d)
	}
	if _, err := CliffsDelta(nil, []float64{1}); err == nil {
		t.Error("empty sample should error")
	}
}

// Property: Cliff's delta matches the naive O(nm) dominance count.
func TestCliffsDeltaMatchesNaive(t *testing.T) {
	f := func(au, bu []uint8) bool {
		if len(au) == 0 || len(bu) == 0 || len(au) > 30 || len(bu) > 30 {
			return true
		}
		a := make([]float64, len(au))
		b := make([]float64, len(bu))
		for i, v := range au {
			a[i] = float64(v % 10)
		}
		for i, v := range bu {
			b[i] = float64(v % 10)
		}
		got, err := CliffsDelta(a, b)
		if err != nil {
			return false
		}
		var dom float64
		for _, x := range a {
			for _, y := range b {
				switch {
				case x > y:
					dom++
				case x < y:
					dom--
				}
			}
		}
		want := dom / float64(len(a)*len(b))
		return almostEqual(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDeltaMagnitude(t *testing.T) {
	cases := map[float64]string{
		0: "negligible", 0.1: "negligible", -0.2: "small",
		0.4: "medium", 0.9: "large", -1: "large",
	}
	for d, want := range cases {
		if got := DeltaMagnitude(d); got != want {
			t.Errorf("DeltaMagnitude(%v) = %q, want %q", d, got, want)
		}
	}
}
