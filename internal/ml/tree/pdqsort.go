// This file is the unstable part of the standard library's generated
// pdqsort (slices/zsortanyfunc.go, Go 1.24) specialised to []sample, each
// `cmp(p, q) < 0` written `p.x < q.x`: the same comparisons and swaps in
// the same order, so equal keys come out as slices.SortFunc leaves them.
// It is kept because it is faster, not for its bits: with slices.SortFunc
// back in sortSamples (same bits), go run ./bench -workload ml-protocol
// -seconds 6 took 0.821 s to a result against 0.675 s with this copy, median
// of 12 alternating pairs, the copy faster in 10 (2-vCPU Intel Xeon;
// docs/ARCHITECTURE.md, "ML numerics").
//
// Copyright 2022 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE-go file.

package tree

import (
	"math/bits"
	"slices"
)

// sortSamples is slices.SortFunc(data, cmp), permutation included, for the
// cmp that returns -1, 1 or 0 as a.x < b.x, b.x < a.x or neither.
func sortSamples(data []sample) {
	n := len(data)
	pdqsort(data, 0, n, bits.Len(uint(n)))
}

// insertionSort sorts data[a:b] using insertion sort.
func insertionSort(data []sample, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && data[j].x < data[j-1].x; j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDown implements the heap property on data[lo:hi].
// first is an offset into the array where the root of the heap lies.
func siftDown(data []sample, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && data[first+child].x < data[first+child+1].x {
			child++
		}
		if !(data[first+root].x < data[first+child].x) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSort(data []sample, a, b int) {
	first := a
	lo := 0
	hi := b - a
	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDown(data, i, hi, first)
	}
	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDown(data, lo, i, first)
	}
}

// pdqsort sorts data[a:b] by pattern-defeating quicksort (https://arxiv.org/pdf/2106.05123.pdf).
// limit is the number of allowed bad (very unbalanced) pivots before falling back to heapsort.
func pdqsort(data []sample, a, b, limit int) {
	const maxInsertion = 12
	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)
	for {
		length := b - a
		if length <= maxInsertion {
			insertionSort(data, a, b)
			return
		}
		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSort(data, a, b)
			return
		}
		// If the last partitioning was imbalanced, we need to breaking patterns.
		if !wasBalanced {
			breakPatterns(data, a, b)
			limit--
		}
		pivot, hint := choosePivot(data, a, b)
		if hint == decreasingHint {
			slices.Reverse(data[a:b])
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}
		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSort(data, a, b) {
				return
			}
		}
		// Probably the slice contains many duplicate elements, partition the slice into
		// elements equal to and elements greater than the pivot.
		if a > 0 && !(data[a-1].x < data[pivot].x) {
			mid := partitionEqual(data, a, b, pivot)
			a = mid
			continue
		}
		mid, alreadyPartitioned := partition(data, a, b, pivot)
		wasPartitioned = alreadyPartitioned
		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			pdqsort(data, a, mid, limit)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			pdqsort(data, mid+1, b, limit)
			b = mid
		}
	}
}

// partition does one quicksort partition: with p = data[pivot], data[i]<p and data[j]>=p
// for i<newpivot and j>newpivot, and data[newpivot] = p on return.
func partition(data []sample, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned
	for i <= j && data[i].x < data[a].x {
		i++
	}
	for i <= j && !(data[j].x < data[a].x) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--
	for {
		for i <= j && data[i].x < data[a].x {
			i++
		}
		for i <= j && !(data[j].x < data[a].x) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqual partitions data[a:b] into elements equal to data[pivot] followed by elements greater than data[pivot].
// It assumed that data[a:b] does not contain elements smaller than the data[pivot].
func partitionEqual(data []sample, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned
	for {
		for i <= j && !(data[a].x < data[i].x) {
			i++
		}
		for i <= j && data[a].x < data[j].x {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSort partially sorts a slice, returns true if the slice is sorted at the end.
func partialInsertionSort(data []sample, a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !(data[i].x < data[i-1].x) {
			i++
		}
		if i == b {
			return true
		}
		if b-a < shortestShifting {
			return false
		}
		data[i], data[i-1] = data[i-1], data[i]
		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !(data[j].x < data[j-1].x) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !(data[j].x < data[j-1].x) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatterns scatters some elements around in an attempt to break some patterns
// that might cause imbalanced partitions in quicksort.
func breakPatterns(data []sample, a, b int) {
	length := b - a
	if length >= 8 {
		random := uint64(length) // xorshift, https://www.jstatsoft.org/article/view/v008i14/xorshift.pdf
		modulus := uint(1) << bits.Len(uint(length))
		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			random ^= random << 13
			random ^= random >> 7
			random ^= random << 17
			other := int(uint(random) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// choosePivot chooses a pivot in data[a:b]: a static one below 8 elements, the
// median of three below shortestNinther, and Tukey's ninther from there on.
func choosePivot(data []sample, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)
	l := b - a
	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)
	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = median(data, i-1, i, i+1, &swaps)
			j = median(data, j-1, j, j+1, &swaps)
			k = median(data, k-1, k, k+1, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = median(data, i, j, k, &swaps)
	}
	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2 returns x,y where data[x] <= data[y], where x,y=a,b or x,y=b,a.
func order2(data []sample, a, b int, swaps *int) (int, int) {
	if data[b].x < data[a].x {
		*swaps++
		return b, a
	}
	return a, b
}

// median returns x where data[x] is the median of data[a],data[b],data[c], where x is a, b, or c.
func median(data []sample, a, b, c int, swaps *int) int {
	a, b = order2(data, a, b, swaps)
	b, c = order2(data, b, c, swaps)
	a, b = order2(data, a, b, swaps)
	return b
}

type sortedHint int // hint for pdqsort when choosing the pivot

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)
