package knn

import (
	"fmt"
	"math"

	"repro/internal/ml"
)

// Metric identifies the distance function.
type Metric int

// Supported metrics.
const (
	Manhattan Metric = iota + 1 // L1, the paper's tuned choice
	Euclidean                   // L2
	Minkowski                   // Lp with configurable P
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case Manhattan:
		return "manhattan"
	case Euclidean:
		return "euclidean"
	case Minkowski:
		return "minkowski"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Weighting selects how neighbor targets are combined.
type Weighting int

// Supported weightings.
const (
	// WeightDistance uses inverse-distance weights (the paper's choice);
	// an exact feature match returns that training target directly.
	WeightDistance Weighting = iota + 1
	// WeightUniform averages the k neighbors equally.
	WeightUniform
)

// Regressor is the k-NN model. Configure before Fit; the zero value is
// k=0 and invalid (use New).
type Regressor struct {
	K      int
	Metric Metric
	// P is the Minkowski exponent, used only when Metric == Minkowski.
	P float64
	// Weights defaults to WeightDistance when left zero.
	Weights Weighting

	x      [][]float64
	y      []float64
	fitted bool
}

// New returns the paper's configuration: weighted k-NN with the given k and
// metric.
func New(k int, metric Metric) *Regressor {
	return &Regressor{K: k, Metric: metric, P: 2, Weights: WeightDistance}
}

// Fit memorizes the training set.
func (r *Regressor) Fit(X [][]float64, y []float64) error {
	if err := ml.CheckXY(X, y); err != nil {
		return err
	}
	if r.K < 1 {
		return fmt.Errorf("ml/knn: k=%d must be >= 1", r.K)
	}
	if r.K > len(X) {
		return fmt.Errorf("ml/knn: k=%d exceeds %d training samples", r.K, len(X))
	}
	if r.Metric == Minkowski && r.P <= 0 {
		return fmt.Errorf("ml/knn: minkowski p=%v must be > 0", r.P)
	}
	if r.Weights == 0 {
		r.Weights = WeightDistance
	}
	// Copy: the contract says callers may reuse their slices.
	r.x = make([][]float64, len(X))
	for i, row := range X {
		r.x[i] = append([]float64(nil), row...)
	}
	r.y = append([]float64(nil), y...)
	r.fitted = true
	return nil
}

// distances4 returns the distances from x to four training rows. The four
// sums run side by side on independent accumulators, each adding its terms in
// ascending feature order, so every distance is the one-row loop's bit for
// bit.
func (r *Regressor) distances4(x, a, b, c, d []float64) (da, db, dc, dd float64) {
	a, b, c, d = a[:len(x)], b[:len(x)], c[:len(x)], d[:len(x)]
	switch r.Metric {
	case Euclidean:
		for i, v := range x {
			ea, eb, ec, ed := v-a[i], v-b[i], v-c[i], v-d[i]
			da += ea * ea
			db += eb * eb
			dc += ec * ec
			dd += ed * ed
		}
		return math.Sqrt(da), math.Sqrt(db), math.Sqrt(dc), math.Sqrt(dd)
	case Minkowski: // math.Pow dominates; nothing to gain from blocking
		return r.distance(x, a), r.distance(x, b), r.distance(x, c), r.distance(x, d)
	default: // Manhattan
		for i, v := range x {
			da += math.Abs(v - a[i])
			db += math.Abs(v - b[i])
			dc += math.Abs(v - c[i])
			dd += math.Abs(v - d[i])
		}
		return da, db, dc, dd
	}
}

func (r *Regressor) distance(a, b []float64) float64 {
	switch r.Metric {
	case Euclidean:
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	case Minkowski:
		var s float64
		for i := range a {
			s += math.Pow(math.Abs(a[i]-b[i]), r.P)
		}
		return math.Pow(s, 1/r.P)
	default: // Manhattan
		var s float64
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	}
}

// nearest is the current best k as a max-heap on distance, over two parallel
// slices — the ones Neighbors returns, so a query allocates nothing else.
// up and down are container/heap's sift loops with Less(i, j) = dist[i] >
// dist[j] written in: among equidistant rows the same ones survive, in the
// same order, as under container/heap.
type nearest struct {
	idx  []int
	dist []float64
}

func (h *nearest) swap(i, j int) {
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
}

func (h *nearest) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h.dist[j] > h.dist[i]) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts the root down within the first n entries.
func (h *nearest) down(n int) {
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.dist[j2] > h.dist[j1] {
			j = j2 // right child
		}
		if !(h.dist[j] > h.dist[i]) {
			break
		}
		h.swap(i, j)
		i = j
	}
}

// offer considers training row i at distance d for the best k.
func (h *nearest) offer(k, i int, d float64) {
	if n := len(h.idx); n < k {
		h.idx, h.dist = append(h.idx, i), append(h.dist, d)
		h.up(n)
	} else if d < h.dist[0] {
		h.idx[0], h.dist[0] = i, d
		h.down(n)
	}
}

// Neighbors returns the indices and distances of the k nearest training
// points, nearest first.
func (r *Regressor) Neighbors(x []float64) ([]int, []float64, error) {
	if !r.fitted {
		return nil, nil, ml.ErrNotFitted
	}
	h := nearest{idx: make([]int, 0, r.K), dist: make([]float64, 0, r.K)}
	rows := r.x
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		d0, d1, d2, d3 := r.distances4(x, rows[i], rows[i+1], rows[i+2], rows[i+3])
		h.offer(r.K, i, d0)
		h.offer(r.K, i+1, d1)
		h.offer(r.K, i+2, d2)
		h.offer(r.K, i+3, d3)
	}
	for ; i < len(rows); i++ {
		h.offer(r.K, i, r.distance(x, rows[i]))
	}
	// Sort ascending in place: each pass moves the farthest of the first n
	// entries to position n-1, where popping the heap would have put it.
	for n := len(h.idx) - 1; n > 0; n-- {
		h.swap(0, n)
		h.down(n)
	}
	return h.idx, h.dist, nil
}

// Predict returns the weighted average of the k nearest targets.
func (r *Regressor) Predict(x []float64) float64 {
	idx, dist, err := r.Neighbors(x)
	if err != nil {
		return 0
	}
	if r.Weights == WeightUniform {
		var s float64
		for _, i := range idx {
			s += r.y[i]
		}
		return s / float64(len(idx))
	}
	// Inverse-distance weights; exact matches dominate (scikit-learn
	// semantics: if any neighbor is at distance 0, average those).
	var exactSum float64
	exactCnt := 0
	for k, d := range dist {
		if d == 0 {
			exactSum += r.y[idx[k]]
			exactCnt++
		}
	}
	if exactCnt > 0 {
		return exactSum / float64(exactCnt)
	}
	var num, den float64
	for k, d := range dist {
		w := 1 / d
		num += w * r.y[idx[k]]
		den += w
	}
	return num / den
}

var _ ml.Regressor = (*Regressor)(nil)
