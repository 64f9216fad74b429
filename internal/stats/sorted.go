package stats

import "cmp"

// The sorted-merge kernel: the allocation-free counterpart of the map-based
// reference Jaccard, and the one the analysis runs, on the tree-diff's
// interned dense ids and on sorted string sets alike. Both kernels compute
// the same integer (intersection, union) pair and divide once, so their
// float64 results are bit-identical — the property suite and
// FuzzSortedMerge pin that equivalence.

// sortedInterUnion linear-merges two ascending slices and returns the
// distinct-element intersection and union sizes. Duplicates within a slice
// are tolerated (counted once), so dedup'd and raw sorted inputs agree.
func sortedInterUnion[T cmp.Ordered](a, b []T) (inter, union int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			union++
			v := a[i]
			for i < len(a) && a[i] == v {
				i++
			}
			for j < len(b) && b[j] == v {
				j++
			}
		case a[i] < b[j]:
			union++
			v := a[i]
			for i < len(a) && a[i] == v {
				i++
			}
		default:
			union++
			v := b[j]
			for j < len(b) && b[j] == v {
				j++
			}
		}
	}
	for i < len(a) {
		union++
		v := a[i]
		for i < len(a) && a[i] == v {
			i++
		}
	}
	for j < len(b) {
		union++
		v := b[j]
		for j < len(b) && b[j] == v {
			j++
		}
	}
	return inter, union
}

// JaccardSorted is Jaccard over ascending-sorted slices: a single linear
// merge, no allocation. Two empty slices are perfectly similar (J = 1),
// matching the map kernel's convention.
func JaccardSorted[T cmp.Ordered](a, b []T) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter, union := sortedInterUnion(a, b)
	return float64(inter) / float64(union)
}

// PairwiseMeanJaccardSorted is PairwiseMeanJaccard over ascending-sorted
// slices, pairing sets in the same (i, j) order so the accumulated float
// sum — and therefore the mean — is bit-identical to the map kernel's.
func PairwiseMeanJaccardSorted[T cmp.Ordered](sets [][]T) float64 {
	if len(sets) < 2 {
		return 1
	}
	var sum float64
	var n int
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			sum += JaccardSorted(sets[i], sets[j])
			n++
		}
	}
	return sum / float64(n)
}
