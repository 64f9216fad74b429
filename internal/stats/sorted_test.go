package stats

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Equivalence suite for the sorted-merge kernel: on any input, the int32
// kernel must agree exactly (==, not within epsilon) with the map kernel —
// both compute the same (intersection, union) integers before the one
// division, so any drift is a logic bug, not float noise.

// randIDSet draws a sorted, duplicate-free set of dense ids from a small
// pool (overlap-heavy, like interned node keys of similar trees).
func randIDSet(rng *rand.Rand, maxLen int) []int32 {
	n := rng.Intn(maxLen + 1)
	seen := map[int32]bool{}
	for i := 0; i < n; i++ {
		seen[int32(rng.Intn(2*maxLen))] = true
	}
	out := make([]int32, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// asStringSet maps dense ids onto the map kernel's domain.
func asStringSet(ids []int32) map[string]bool {
	s := make(map[string]bool, len(ids))
	for _, id := range ids {
		s[fmt.Sprintf("e%04d", id)] = true
	}
	return s
}

func TestJaccardSortedMatchesMapKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		a, b := randIDSet(rng, 12), randIDSet(rng, 12)
		got := JaccardSorted(a, b)
		want := Jaccard(asStringSet(a), asStringSet(b))
		if got != want {
			t.Fatalf("JaccardSorted(%v, %v) = %v, map kernel = %v", a, b, got, want)
		}
		if sym := JaccardSorted(b, a); sym != got {
			t.Fatalf("JaccardSorted not symmetric: %v vs %v", got, sym)
		}
	}
}

func TestJaccardSortedEmptyConvention(t *testing.T) {
	if j := JaccardSorted[int32](nil, nil); j != 1 {
		t.Errorf("J(∅,∅) = %v, want 1", j)
	}
	if j := JaccardSorted(nil, []int32{3}); j != 0 {
		t.Errorf("J(∅,{3}) = %v, want 0", j)
	}
	if j := JaccardSorted([]int32{3}, []int32{3}); j != 1 {
		t.Errorf("J({3},{3}) = %v, want 1", j)
	}
}

func TestJaccardSortedToleratesDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 500; i++ {
		a, b := randIDSet(rng, 10), randIDSet(rng, 10)
		dup := func(xs []int32) []int32 {
			var out []int32
			for _, x := range xs {
				for r := 0; r <= rng.Intn(3); r++ {
					out = append(out, x)
				}
			}
			return out
		}
		if got, want := JaccardSorted(dup(a), dup(b)), JaccardSorted(a, b); got != want {
			t.Fatalf("duplicate runs changed J: %v vs %v (a=%v b=%v)", got, want, a, b)
		}
	}
}

func TestPairwiseMeanJaccardSortedMatchesMapKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 500; i++ {
		ints := make([][]int32, 2+rng.Intn(5))
		maps := make([]map[string]bool, len(ints))
		for j := range ints {
			ints[j] = randIDSet(rng, 10)
			maps[j] = asStringSet(ints[j])
		}
		if got, want := PairwiseMeanJaccardSorted(ints), PairwiseMeanJaccard(maps); got != want {
			t.Fatalf("sorted mean %v != map mean %v for %v", got, want, ints)
		}
	}
	if PairwiseMeanJaccardSorted[int32](nil) != 1 ||
		PairwiseMeanJaccardSorted([][]int32{{1}}) != 1 {
		t.Error("fewer than two sets must yield 1")
	}
}

// FuzzSortedMerge cross-checks the linear-merge intersection/union counts
// against a map reference on arbitrary (unsorted, duplicate-bearing) byte
// strings, after sorting them as the kernel requires.
func FuzzSortedMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{5, 5, 5}, []byte{5})
	f.Add([]byte{0, 255}, []byte{255, 255, 0})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a := make([]int32, len(ab))
		for i, x := range ab {
			a[i] = int32(x)
		}
		b := make([]int32, len(bb))
		for i, x := range bb {
			b[i] = int32(x)
		}
		slices.Sort(a)
		slices.Sort(b)
		inter, union := sortedInterUnion(a, b)

		seenA, seenB := map[int32]bool{}, map[int32]bool{}
		for _, x := range a {
			seenA[x] = true
		}
		for _, x := range b {
			seenB[x] = true
		}
		wantInter, wantUnion := 0, len(seenA)
		for x := range seenB {
			if seenA[x] {
				wantInter++
			} else {
				wantUnion++
			}
		}
		if inter != wantInter || union != wantUnion {
			t.Fatalf("merge (%d,%d) != reference (%d,%d) for %v vs %v",
				inter, union, wantInter, wantUnion, a, b)
		}
		if inter > union {
			t.Fatalf("intersection %d exceeds union %d", inter, union)
		}
	})
}
