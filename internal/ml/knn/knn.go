package knn

import (
	"encoding/gob"
	"fmt"
	"math"
	"slices"

	"repro/internal/ml"
)

// Metric and Weighting are what a payload says about the distance function
// and the neighbor weights. One value of each is implemented, the paper's
// tuned choice; a payload naming another is refused.
type (
	Metric    int
	Weighting int
)

const (
	// Manhattan is the L1 distance.
	Manhattan Metric = 1
	// WeightDistance uses inverse-distance weights; an exact feature match
	// returns that training target directly.
	WeightDistance Weighting = 1
)

// Regressor is the k-NN model: the inverse-distance weighted average of the
// K nearest training rows under Manhattan distance. The zero value is k=0
// and invalid (use New). The fields are also the model's gob payload; X and
// Y are the memorized training set.
type Regressor struct {
	K       int
	Metric  Metric
	Weights Weighting
	X       [][]float64
	Y       []float64
	Fitted  bool
}

// New returns the paper's configuration with the given k.
func New(k int) *Regressor {
	return &Regressor{K: k, Metric: Manhattan, Weights: WeightDistance}
}

// check is what Fit asks of the model it is about to leave and GobDecode of
// a decoded one, before Neighbors indexes it: the implemented metric and
// weighting (the zero values mean them too) and, once fitted, K or more
// equally wide rows with a target each.
func (r *Regressor) check() error {
	if (r.Metric != 0 && r.Metric != Manhattan) || (r.Weights != 0 && r.Weights != WeightDistance) {
		return fmt.Errorf("ml/knn: metric %d with weighting %d: only Manhattan distance (%d) with inverse-distance weights (%d) is implemented",
			r.Metric, r.Weights, Manhattan, WeightDistance)
	}
	if !r.Fitted {
		return nil
	}
	if err := ml.CheckXY(r.X, r.Y); err != nil {
		return err
	}
	return checkK(r.K, len(r.X))
}

// checkK asks of k that it select between one and all n training rows.
func checkK(k, n int) error {
	if k < 1 || k > n {
		return fmt.Errorf("ml/knn: k=%d must be in [1, %d training samples]", k, n)
	}
	return nil
}

// Fit memorizes the training set.
func (r *Regressor) Fit(X [][]float64, y []float64) error {
	// The model this Fit would leave must pass the check a decoded one does.
	fitted := Regressor{K: r.K, Metric: r.Metric, Weights: r.Weights, X: X, Y: y, Fitted: true}
	if err := fitted.check(); err != nil {
		return err
	}
	// Copy: the contract says callers may reuse their slices.
	r.X = make([][]float64, len(X))
	for i, row := range X {
		r.X[i] = append([]float64(nil), row...)
	}
	r.Y = append([]float64(nil), y...)
	r.Fitted = true
	return nil
}

const checkEvery = 8 // features distances4 adds between two looks at its bound

// distances4 returns the distances from x to four training rows. The four
// sums run side by side on independent accumulators, each adding its terms in
// ascending feature order, so every distance is the one-row loop's bit for
// bit. Every checkEvery features it returns the partial sums once all four
// are >= bound: adding a non-negative term never makes a float sum smaller,
// so each distance would be >= bound too, or NaN. A NaN never compares >=.
func distances4(x, a, b, c, d []float64, bound float64) (da, db, dc, dd float64) {
	for len(x) > 0 {
		n := min(len(x), checkEvery)
		xs, as, bs, cs, ds := x[:n], a[:n], b[:n], c[:n], d[:n]
		for i, v := range xs {
			da += math.Abs(v - as[i])
			db += math.Abs(v - bs[i])
			dc += math.Abs(v - cs[i])
			dd += math.Abs(v - ds[i])
		}
		if da >= bound && db >= bound && dc >= bound && dd >= bound {
			break
		}
		x, a, b, c, d = x[n:], a[n:], b[n:], c[n:], d[n:]
	}
	return da, db, dc, dd
}

// nearest is the current best k as a max-heap on distance, over two parallel
// slices — the ones Neighbors returns, so a query allocates nothing else.
// up and down are container/heap's sift loops with Less(i, j) = dist[i] >
// dist[j] written in: among equidistant rows the same ones survive, in the
// same order, as under container/heap.
type nearest struct {
	k    int
	idx  []int
	dist []float64
}

func newNearest(k int) nearest {
	return nearest{k: k, idx: make([]int, 0, k), dist: make([]float64, 0, k)}
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
func (h *nearest) offer(i int, d float64) {
	if n := len(h.idx); n < h.k {
		h.idx, h.dist = append(h.idx, i), append(h.dist, d)
		h.up(n)
	} else if d < h.dist[0] {
		h.idx[0], h.dist[0] = i, d
		h.down(n)
	}
}

// sort orders the heap's rows nearest first, in place: each pass moves the
// farthest of the first n entries to position n-1, where popping the heap
// would have put it.
func (h *nearest) sort() {
	for n := len(h.idx) - 1; n > 0; n-- {
		h.swap(0, n)
		h.down(n)
	}
}

// bound is the distance at which distances4 may give a block up for every
// heap in hs: the largest root, or NaN while a heap is not full or a root is
// NaN. A block whose partial sums are all >= it is rejected by each heap's
// offer, since each root is <= it, so every heap keeps the rows and the tie
// order it would keep alone.
func bound(hs []nearest) float64 {
	b := math.Inf(-1)
	for i := range hs {
		if len(hs[i].idx) < hs[i].k {
			return math.NaN()
		}
		b = max(b, hs[i].dist[0]) // NaN if the root is
	}
	return b
}

// scan offers every training row's distance from x to each heap of hs, in
// index order. Every heap sees the same offers a search of its own would
// make, so each ends up holding what that search would (see bound).
func (r *Regressor) scan(x []float64, hs []nearest) {
	rows := r.X
	i := 0
	// Once every heap is full, b is the largest root (see bound). distances4
	// gives up a block whose partial sums are all >= b, and a block whose four
	// sums, partial or full, are all >= b is not offered: every heap's offer
	// would reject it, as it would the full distances.
	b := math.NaN()
	for ; i+4 <= len(rows); i += 4 {
		d0, d1, d2, d3 := distances4(x, rows[i], rows[i+1], rows[i+2], rows[i+3], b)
		if d0 >= b && d1 >= b && d2 >= b && d3 >= b {
			continue
		}
		for j := range hs {
			h := &hs[j]
			h.offer(i, d0)
			h.offer(i+1, d1)
			h.offer(i+2, d2)
			h.offer(i+3, d3)
		}
		b = bound(hs)
	}
	for ; i < len(rows); i++ {
		d, _, _, _ := distances4(x, rows[i], rows[i], rows[i], rows[i], b)
		for j := range hs {
			hs[j].offer(i, d)
		}
	}
}

// Neighbors returns the indices and distances of the k nearest training
// points, nearest first.
func (r *Regressor) Neighbors(x []float64) ([]int, []float64, error) {
	if !r.Fitted {
		return nil, nil, ml.ErrNotFitted
	}
	h := [1]nearest{newNearest(r.K)}
	r.scan(x, h[:])
	h[0].sort()
	return h[0].idx, h[0].dist, nil
}

// Predict returns the weighted average of the k nearest targets.
func (r *Regressor) Predict(x []float64) float64 {
	idx, dist, err := r.Neighbors(x)
	if err != nil {
		return 0
	}
	return r.average(idx, dist)
}

// average is the inverse-distance weighted average of the targets of the
// given neighbours, nearest first.
func (r *Regressor) average(idx []int, dist []float64) float64 {
	// Inverse-distance weights; exact matches dominate (scikit-learn
	// semantics: if any neighbor is at distance 0, average those).
	var exactSum float64
	exactCnt := 0
	for k, d := range dist {
		if d == 0 {
			exactSum += r.Y[idx[k]]
			exactCnt++
		}
	}
	if exactCnt > 0 {
		return exactSum / float64(exactCnt)
	}
	var num, den float64
	for k, d := range dist {
		w := 1 / d
		num += w * r.Y[idx[k]]
		den += w
	}
	return num / den
}

// PredictEachK predicts every row of X once for each k in ks, with r's
// training set and r.K ignored: out[i][q] is the prediction of New(ks[i])
// fitted on that set, bit for bit. Each row gets one distance scan, which
// feeds one heap per distinct k.
func (r *Regressor) PredictEachK(X [][]float64, ks []int) ([][]float64, error) {
	if !r.Fitted {
		return nil, ml.ErrNotFitted
	}
	distinct := slices.Compact(slices.Sorted(slices.Values(ks)))
	hs := make([]nearest, len(distinct))
	for j, k := range distinct {
		if err := checkK(k, len(r.X)); err != nil {
			return nil, err
		}
		hs[j] = newNearest(k)
	}
	out := make([][]float64, len(ks))
	for i := range out {
		out[i] = make([]float64, len(X))
	}
	at := make([]int, len(ks)) // the heap of ks[i]
	for i, k := range ks {
		at[i], _ = slices.BinarySearch(distinct, k)
	}
	pred := make([]float64, len(hs))
	for q, x := range X {
		for j := range hs {
			hs[j].idx, hs[j].dist = hs[j].idx[:0], hs[j].dist[:0]
		}
		r.scan(x, hs)
		for j := range hs {
			hs[j].sort()
			pred[j] = r.average(hs[j].idx, hs[j].dist)
		}
		for i, j := range at {
			out[i][q] = pred[j]
		}
	}
	return out, nil
}

var _ ml.Regressor = (*Regressor)(nil)

func init() { gob.RegisterName("ffr/knn.Regressor", &Regressor{}) }

// wire is Regressor without its methods: what gob sees of one.
type wire Regressor

// GobEncode exports the configuration and the memorized training set.
func (r *Regressor) GobEncode() ([]byte, error) { return ml.GobState((*wire)(r)) }

// GobDecode restores a k-NN model.
func (r *Regressor) GobDecode(data []byte) error { return ml.UngobState(data, (*wire)(r), r.check) }
