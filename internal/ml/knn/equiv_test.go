package knn

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refNeighbors is the search Neighbors replaced, kept verbatim as the
// reference: one distance call per training row and a container/heap
// max-heap. Which of several equidistant rows survives in the heap, and the
// order they leave it in, follow from container/heap's sift rules, and the
// inverse-distance average adds targets in that order — so Neighbors must
// return the same indices in the same order (docs/ARCHITECTURE.md, "ML
// numerics").
func refNeighbors(r *Regressor, x []float64) ([]int, []float64) {
	h := make(refHeap, 0, r.K)
	for i, row := range r.X {
		d := refDistance(x, row)
		if len(h) < r.K {
			heap.Push(&h, refNeighbor{dist: d, idx: i})
		} else if d < h[0].dist {
			h[0] = refNeighbor{dist: d, idx: i}
			heap.Fix(&h, 0)
		}
	}
	idx := make([]int, len(h))
	dist := make([]float64, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		nb := heap.Pop(&h).(refNeighbor)
		idx[i] = nb.idx
		dist[i] = nb.dist
	}
	return idx, dist
}

func refDistance(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

type refHeap []refNeighbor

type refNeighbor struct {
	dist float64
	idx  int
}

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist > h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refNeighbor)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func TestNeighborsBitIdenticalToContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// 90 rows on a coarse grid, a third of them exact duplicates of earlier
	// rows: most queries see ties at the k-th distance. 90 is not a multiple
	// of four and the width is odd, so every blocked loop has a tail.
	const n, width = 90, 5
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		if i >= 2*n/3 {
			X[i] = X[rng.Intn(2*n/3)]
		} else {
			X[i] = make([]float64, width)
			for j := range X[i] {
				X[i][j] = float64(rng.Intn(4))
			}
		}
		y[i] = rng.NormFloat64()
	}
	queries := append([][]float64(nil), X[:30]...)
	for q := 0; q < 30; q++ {
		row := make([]float64, width)
		for j := range row {
			row[j] = float64(rng.Intn(8)) / 2
		}
		queries = append(queries, row)
	}
	for _, k := range []int{1, 3, 7, 20, n} {
		t.Run(fmt.Sprintf("manhattan-k%d", k), func(t *testing.T) {
			m := New(k)
			if err := m.Fit(X, y); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			for qi, q := range queries {
				idx, dist, err := m.Neighbors(q)
				if err != nil {
					t.Fatalf("Neighbors: %v", err)
				}
				wantIdx, wantDist := refNeighbors(m, q)
				if len(idx) != len(wantIdx) || len(dist) != len(wantDist) {
					t.Fatalf("query %d: %d/%d results, want %d", qi, len(idx), len(dist), len(wantIdx))
				}
				for i := range wantIdx {
					if idx[i] != wantIdx[i] || math.Float64bits(dist[i]) != math.Float64bits(wantDist[i]) {
						t.Fatalf("query %d neighbour %d: (%d, %x), container/heap search gives (%d, %x)",
							qi, i, idx[i], dist[i], wantIdx[i], wantDist[i])
					}
				}
			}
		})
	}
}
