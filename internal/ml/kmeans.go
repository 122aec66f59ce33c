package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// KMeans is a deterministic Lloyd's-algorithm k-means clusterer with
// k-means++ seeding. All randomness derives from the seed passed to Fit, so
// the same (data, k, seed) always yields identical clusters — the property
// the hardening advisor needs for plans that are deterministic in their
// seed. Ties (equidistant centers, empty
// clusters) break toward the lowest index.
//
// Edge cases are part of the contract: K is capped at the number of rows;
// a cluster left empty by a Lloyd step is re-seated on the point farthest
// from its assigned center, each simultaneous empty cluster claiming a
// distinct point; when the data holds fewer distinct points than K, the
// surplus centers converge onto duplicates of existing ones. These are
// pinned by regression tests.
type KMeans struct {
	// K is the number of clusters; Fit caps it at the number of rows.
	K int
	// MaxIter bounds the Lloyd iterations; 0 means DefaultKMeansIter.
	MaxIter int
	// Centers holds the fitted centroids after Fit, one row per cluster.
	Centers [][]float64
}

// DefaultKMeansIter is the default Lloyd iteration cap; runs almost always
// converge (assignments stop changing) much earlier.
const DefaultKMeansIter = 50

// NewKMeans returns a k-cluster KMeans with default iteration cap.
func NewKMeans(k int) *KMeans { return &KMeans{K: k} }

// Fit clusters the rows of X. It is deterministic in (X, K, seed).
func (km *KMeans) Fit(X [][]float64, seed int64) error {
	if km.K < 1 {
		return fmt.Errorf("%w: k-means needs K >= 1, have %d", ErrBadData, km.K)
	}
	if len(X) == 0 || len(X[0]) == 0 {
		return fmt.Errorf("%w: empty matrix", ErrBadData)
	}
	cols := len(X[0])
	for i, row := range X {
		if len(row) != cols {
			return fmt.Errorf("%w: row %d has %d columns, want %d", ErrBadData, i, len(row), cols)
		}
	}
	k := km.K
	if k > len(X) {
		k = len(X)
	}
	maxIter := km.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultKMeansIter
	}

	km.Centers = kmeansppInit(X, k, rand.New(rand.NewSource(seed)))
	assign := make([]int, len(X))
	counts := make([]int, k)
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, cols)
	}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, row := range X {
			if c := km.Assign(row); c != assign[i] {
				changed = true
				assign[i] = c
			}
		}
		if iter > 0 && !changed {
			break
		}
		for c := 0; c < k; c++ {
			counts[c] = 0
			for j := range sums[c] {
				sums[c][j] = 0
			}
		}
		for i, row := range X {
			c := assign[i]
			counts[c]++
			for j, v := range row {
				sums[c][j] += v
			}
		}
		empties := false
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				empties = true
				continue
			}
			for j := range km.Centers[c] {
				km.Centers[c][j] = sums[c][j] / float64(counts[c])
			}
		}
		if empties {
			reseatEmptyClusters(km.Centers, X, assign, counts)
		}
	}
	return nil
}

// reseatEmptyClusters re-seats every empty cluster on the point farthest
// from its currently assigned center (deterministic: first maximum). Each
// re-seated point is claimed — assign is updated and later empty clusters
// skip it — so simultaneous empty clusters land on distinct points instead
// of all copying the same one.
func reseatEmptyClusters(centers, X [][]float64, assign, counts []int) {
	var taken []int
	for c := range counts {
		if counts[c] != 0 {
			continue
		}
		far, farDist := 0, -1.0
	scan:
		for i, row := range X {
			for _, t := range taken {
				if t == i {
					continue scan
				}
			}
			if d := sqDist(row, centers[assign[i]]); d > farDist {
				far, farDist = i, d
			}
		}
		copy(centers[c], X[far])
		assign[far] = c
		taken = append(taken, far)
	}
}

// Assign returns the index of the fitted center nearest to x (lowest index
// on ties). It requires a successful Fit.
func (km *KMeans) Assign(x []float64) int {
	best, bestDist := 0, math.Inf(1)
	for c, center := range km.Centers {
		if d := sqDist(x, center); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// Labels assigns every row of X to its nearest fitted center.
func (km *KMeans) Labels(X [][]float64) []int {
	out := make([]int, len(X))
	for i, row := range X {
		out[i] = km.Assign(row)
	}
	return out
}

// kmeansppInit seeds k centers with the k-means++ scheme: the first center
// uniformly at random, each next one with probability proportional to its
// squared distance from the nearest already-chosen center.
func kmeansppInit(X [][]float64, k int, rng *rand.Rand) [][]float64 {
	centers := make([][]float64, 0, k)
	first := rng.Intn(len(X))
	centers = append(centers, append([]float64(nil), X[first]...))
	dist := make([]float64, len(X))
	for i, row := range X {
		dist[i] = sqDist(row, centers[0])
	}
	for len(centers) < k {
		var total float64
		for _, d := range dist {
			total += d
		}
		next := 0
		if total > 0 {
			r := rng.Float64() * total
			acc := 0.0
			for i, d := range dist {
				acc += d
				if acc >= r {
					next = i
					break
				}
			}
		} else {
			// All remaining points coincide with a center; any choice works
			// and the duplicate center simply stays empty.
			next = rng.Intn(len(X))
		}
		centers = append(centers, append([]float64(nil), X[next]...))
		for i, row := range X {
			if d := sqDist(row, centers[len(centers)-1]); d < dist[i] {
				dist[i] = d
			}
		}
	}
	return centers
}

func sqDist(a, b []float64) float64 {
	var s float64
	for j := range a {
		d := a[j] - b[j]
		s += d * d
	}
	return s
}
