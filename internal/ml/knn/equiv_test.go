package knn

import (
	"container/heap"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ml"
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
			for _, scan := range PlatformScans() {
				m.UseScan(scan)
				for qi, q := range queries {
					assertNeighbors(t, scan, "", qi, m, q)
				}
			}
		})
	}
}

// instrumented is set in a race-detector build (race_test.go).
var instrumented bool

// sameBits reports whether scan's result a has the bits of the reference b.
// The one exception is the "avx" scan in an instrumented build (-race, or a
// fuzzing worker): there two NaNs pass whatever their payloads, because the
// instrumentation changes which of two NaN operands the Go loops' adds pass
// on, so the reference picks its own, while the AVX kernel keeps the one of
// the uninstrumented build (docs/ARCHITECTURE.md "ML numerics"). The "go"
// scan is compiled alongside the reference and is always compared bit for
// bit.
func sameBits(scan string, a, b float64) bool {
	if math.Float64bits(a) == math.Float64bits(b) {
		return true
	}
	return scan == "avx" && math.IsNaN(a) && math.IsNaN(b) &&
		(instrumented || flag.Lookup("test.fuzzworker").Value.String() == "true")
}

// assertNeighbors fails t, naming label and qi, unless m's neighbours of
// query q under scan (m.UseScan(scan) already made) are refNeighbors': the
// same indices in the same order and distances of the same bits (see
// sameBits).
func assertNeighbors(t *testing.T, scan, label string, qi int, m *Regressor, q []float64) {
	t.Helper()
	idx, dist, err := m.Neighbors(q)
	if err != nil {
		t.Fatalf("Neighbors: %v", err)
	}
	wantIdx, wantDist := refNeighbors(m, q)
	if len(idx) != len(wantIdx) || len(dist) != len(wantDist) {
		t.Fatalf("%s %s: query %d: %d/%d results, want %d", scan, label, qi, len(idx), len(dist), len(wantIdx))
	}
	for i := range wantIdx {
		if idx[i] != wantIdx[i] || !sameBits(scan, dist[i], wantDist[i]) {
			t.Fatalf("%s %s: query %d neighbour %d: (%d, %x), container/heap search gives (%d, %x)",
				scan, label, qi, i, idx[i], math.Float64bits(dist[i]), wantIdx[i], math.Float64bits(wantDist[i]))
		}
	}
}

// specials are the values TestScansOnCorpusFeatures plants: NaNs with three
// payloads and both signs, ±Inf, −0 and subnormals.
var specials = []float64{
	math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000042),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030,
}

// TestScansOnCorpusFeatures holds every scan of PlatformScans to
// refNeighbors on the standardized feature matrix of every corpus scenario at
// both scales, the even rows the training set and the odd rows the queries,
// for k = 3 (the paper's) and 20 (the top of the tuning range). It then
// plants specials in 2 % of the entries, training rows and queries alike,
// and compares again: every index and every distance bit, NaN payloads
// included (see sameBits for the AVX scan in instrumented builds).
func TestScansOnCorpusFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, scale := range []corpus.Scale{corpus.ScaleSmall, corpus.ScaleDefault} {
		for _, sc := range corpus.List() {
			mat, err := sc.Materialize(scale, 1)
			if err != nil {
				t.Fatalf("%s at %s scale: %v", sc.ID(), scale, err)
			}
			var scaler ml.StandardScaler
			if err := scaler.Fit(mat.Features.Rows); err != nil {
				t.Fatal(err)
			}
			rows := scaler.Transform(mat.Features.Rows)
			planted := make([][]float64, len(rows))
			for i, row := range rows {
				planted[i] = append([]float64(nil), row...)
				for f := range row {
					if rng.Intn(50) == 0 {
						planted[i][f] = specials[rng.Intn(len(specials))]
					}
				}
			}
			for _, set := range []struct {
				name string
				rows [][]float64
			}{{"features", rows}, {"planted", planted}} {
				var X, queries [][]float64
				for i, row := range set.rows {
					if i%2 == 0 {
						X = append(X, row)
					} else {
						queries = append(queries, row)
					}
				}
				for _, k := range []int{3, 20} {
					m := New(min(k, len(X)))
					if err := m.Fit(X, make([]float64, len(X))); err != nil {
						t.Fatal(err)
					}
					for _, scan := range PlatformScans() {
						m.UseScan(scan)
						for qi, q := range queries {
							assertNeighbors(t, scan, fmt.Sprintf("%s/%s/%s/k=%d", sc.ID(), scale, set.name, m.K), qi, m, q)
						}
					}
				}
			}
		}
	}
}
