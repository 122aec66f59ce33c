package tree

import (
	"math"
	"slices"
	"testing"
)

// sortFuncOrder is the comparator the split search handed slices.SortFunc
// before it sorted with its own copy of pdqsort.
func sortFuncOrder(a, b sample) int {
	if a.x < b.x {
		return -1
	}
	if b.x < a.x {
		return 1
	}
	return 0
}

// Keys the fuzz target sorts, one shape per pattern. Each shape aims at a
// path of pdqsort: raw levels at insertion sort and the equal-key
// partition, nearly sorted runs at partialInsertionSort, descending runs at
// the reversal, a sawtooth at unbalanced partitions and breakPatterns, and
// McIlroy's adversary at the heapsort fallback.
const (
	patternLevels = iota
	patternNearlySorted
	patternDescending
	patternSawtooth
	patternAdversary
	numPatterns
)

// fuzzKeys builds n keys of the given pattern from data. Wherever data holds
// 0xff the key is NaN, and the levels pattern reads every key from data,
// quantised to six levels with −0 beside +0.
func fuzzKeys(data []byte, pattern, n int) []float64 {
	keys := make([]float64, n)
	switch pattern {
	case patternLevels:
		for k := range keys {
			b := k
			if len(data) > 0 {
				b = int(data[k%len(data)])
			}
			keys[k] = float64(b % 5)
			if b%6 == 5 {
				keys[k] = math.Copysign(0, -1)
			}
		}
	case patternNearlySorted:
		for k := range keys {
			keys[k] = float64(k / 3)
		}
		for k := 0; n > 0 && k+1 < len(data) && k < 8; k += 2 {
			i, j := int(data[k])%n, int(data[k+1])%n
			keys[i], keys[j] = keys[j], keys[i]
		}
	case patternDescending:
		for k := range keys {
			keys[k] = float64(n - k)
		}
	case patternSawtooth:
		period := 2
		if len(data) > 0 {
			period += int(data[0]) % 16
		}
		for k := range keys {
			keys[k] = float64(k % period)
		}
	case patternAdversary:
		keys = adversaryKeys(n)
	}
	for k, b := range data {
		if k < n && b == 0xff {
			keys[k] = math.NaN()
		}
	}
	return keys
}

// adversaryKeys runs McIlroy's "killer adversary for quicksort" against
// slices.SortFunc: every key starts as gas, above every solid value; when
// the sort compares two gas keys one of them freezes to the next solid
// value, chosen so the pivot candidate stays low. The keys it leaves make
// every deterministic quicksort pick bad pivots, which sends pdqsort to its
// heapsort fallback.
func adversaryKeys(n int) []float64 {
	gas := n
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := 0, 0
	data := make([]sample, n)
	for i := range data {
		data[i] = sample{y: float64(i)}
	}
	slices.SortFunc(data, func(a, b sample) int {
		i, j := int(a.y), int(b.y)
		if val[i] == gas && val[j] == gas {
			if i == candidate {
				val[i], solid = solid, solid+1
			} else {
				val[j], solid = solid, solid+1
			}
		}
		if val[i] == gas {
			candidate = i
		} else if val[j] == gas {
			candidate = j
		}
		return val[i] - val[j]
	})
	keys := make([]float64, n)
	for i, v := range val {
		keys[i] = float64(v)
	}
	return keys
}

// sortSamples must reproduce slices.SortFunc's permutation under the
// comparator it replaced, ties, −0 and NaN included: the trees' bits, and
// every pin recorded from them, depend on the order equal keys come out in.
// A failure after a toolchain upgrade means the standard library's sort
// changed, not that this copy is wrong.
func FuzzSortSamplesMatchesSortFunc(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, 11, 12, 13, 49, 50, 51, 64, 200, 700} {
		for p := range numPatterns {
			f.Add([]byte{}, uint8(p), n)
			f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 0xff, 5, 3, 5}, uint8(p), n)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, pattern uint8, n uint16) {
		keys := fuzzKeys(data, int(pattern)%numPatterns, int(n)%1024)
		want := make([]sample, len(keys))
		for k, x := range keys {
			want[k] = sample{x, float64(k)} // the position shows where each key went
		}
		got := slices.Clone(want)
		slices.SortFunc(want, sortFuncOrder)
		sortSamples(got)
		for k := range want {
			if math.Float64bits(got[k].x) != math.Float64bits(want[k].x) || got[k].y != want[k].y {
				t.Fatalf("pattern %d, %d keys: position %d holds key %v from %v, slices.SortFunc puts key %v from %v there",
					pattern%numPatterns, len(keys), k, got[k].x, got[k].y, want[k].x, want[k].y)
			}
		}
	})
}
