// Package parsort provides the parallel ranking step of the MN-Algorithm:
// sorting coordinates by score and selecting the k highest.
//
// The paper notes (§I, "Parallelized Reconstruction") that after the two
// matrix–vector products the only remaining work is sorting the score
// vector, and points to the literature on parallel sorting. Scores are
// ranked under a strict total order — score descending, index ascending on
// ties — so every routine here is deterministic.
package parsort

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// less is the strict total order: higher score first, lower index breaks
// ties.
func less(scores []float64, a, b int32) bool {
	if scores[a] != scores[b] {
		return scores[a] > scores[b]
	}
	return a < b
}

// SortDesc returns the indices 0..len(scores)-1 ordered by score
// descending (ties by ascending index), using a parallel merge sort.
func SortDesc(scores []float64) []int32 {
	n := len(scores)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	if n < 2 {
		return idx
	}
	workers := runtime.GOMAXPROCS(0)
	if n < 1<<12 || workers < 2 {
		sort.Slice(idx, func(a, b int) bool { return less(scores, idx[a], idx[b]) })
		return idx
	}
	// Round worker count down to a power of two so merging pairs up evenly.
	for workers&(workers-1) != 0 {
		workers--
	}
	// Phase 1: sort contiguous blocks concurrently.
	bounds := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		bounds[w] = w * n / workers
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		wg.Add(1)
		go func(part []int32) {
			defer wg.Done()
			sort.Slice(part, func(a, b int) bool { return less(scores, part[a], part[b]) })
		}(idx[lo:hi])
	}
	wg.Wait()
	// Phase 2: pairwise parallel merges until one run remains.
	buf := make([]int32, n)
	src, dst := idx, buf
	for len(bounds) > 2 {
		nb := make([]int, 0, (len(bounds)+1)/2+1)
		nb = append(nb, 0)
		var mg sync.WaitGroup
		for b := 0; b+2 < len(bounds); b += 2 {
			lo, mid, hi := bounds[b], bounds[b+1], bounds[b+2]
			mg.Add(1)
			go func(lo, mid, hi int) {
				defer mg.Done()
				mergeRuns(scores, src, dst, lo, mid, hi)
			}(lo, mid, hi)
			nb = append(nb, hi)
		}
		if len(bounds)%2 == 0 { // odd number of runs: copy the last through
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			copy(dst[lo:hi], src[lo:hi])
			nb = append(nb, hi)
		}
		mg.Wait()
		bounds = nb
		src, dst = dst, src
	}
	return src
}

// mergeRuns merges the sorted runs src[lo:mid] and src[mid:hi] into
// dst[lo:hi].
func mergeRuns(scores []float64, src, dst []int32, lo, mid, hi int) {
	i, j := lo, mid
	for p := lo; p < hi; p++ {
		switch {
		case i >= mid:
			dst[p] = src[j]
			j++
		case j >= hi:
			dst[p] = src[i]
			i++
		case less(scores, src[j], src[i]):
			dst[p] = src[j]
			j++
		default:
			dst[p] = src[i]
			i++
		}
	}
}

// TopK returns the indices of the k largest scores (ties resolved toward
// lower indices), sorted by index ascending. It runs in expected O(n) via
// iterative quickselect and panics if k is out of [0, len(scores)].
func TopK(scores []float64, k int) []int32 {
	n := len(scores)
	if k < 0 || k > n {
		panic(fmt.Sprintf("parsort: TopK k=%d out of [0,%d]", k, n))
	}
	if k == 0 {
		return nil
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	if k < n {
		quickselect(scores, idx, k)
	}
	out := idx[:k]
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// quickselect rearranges idx so that the k smallest elements under the
// (score desc, index asc) order occupy idx[:k]. Median-of-three pivoting,
// iterative; falls back to a full sort on tiny ranges.
func quickselect(scores []float64, idx []int32, k int) {
	lo, hi := 0, len(idx)
	// Deterministic pivot walk: the order is strict and total, so equal
	// keys cannot occur and the recursion always shrinks.
	for hi-lo > 16 {
		p := medianOfThree(scores, idx, lo, hi)
		// Hoare-style partition around pivot value.
		pivot := idx[p]
		idx[p], idx[hi-1] = idx[hi-1], idx[p]
		store := lo
		for i := lo; i < hi-1; i++ {
			if less(scores, idx[i], pivot) {
				idx[i], idx[store] = idx[store], idx[i]
				store++
			}
		}
		idx[store], idx[hi-1] = idx[hi-1], idx[store]
		switch {
		case store == k || store == k-1:
			return
		case store > k:
			hi = store
		default:
			lo = store + 1
		}
	}
	part := idx[lo:hi]
	sort.Slice(part, func(a, b int) bool { return less(scores, part[a], part[b]) })
}

// medianOfThree returns the position in [lo,hi) of the median of the
// first, middle and last elements under the strict order.
func medianOfThree(scores []float64, idx []int32, lo, hi int) int {
	a, b, c := lo, lo+(hi-lo)/2, hi-1
	if less(scores, idx[b], idx[a]) {
		a, b = b, a
	}
	if less(scores, idx[c], idx[b]) {
		b = c
		if less(scores, idx[b], idx[a]) {
			b = a
		}
	}
	return b
}
