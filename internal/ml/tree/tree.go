package tree

import (
	"encoding/gob"
	"fmt"

	"repro/internal/ml"
)

// Regressor is a CART regression tree. The zero value uses sane defaults
// (unbounded depth, leaves of at least one sample). The fields but
// FeatureOrder are also the model's gob payload.
type Regressor struct {
	// MaxDepth bounds the tree height; 0 means unbounded.
	MaxDepth int
	// MinSamplesLeaf is the minimum samples in each child (default 1).
	MinSamplesLeaf int
	// MinSamplesSplit is the minimum samples to attempt a split
	// (default 2).
	MinSamplesSplit int
	// MaxFeatures restricts the features examined per split; 0 examines
	// all. Random forests set this together with a per-tree RNG.
	MaxFeatures int
	// FeatureOrder, when non-nil, supplies the feature subset to examine
	// at each split (used by ensembles for feature subsampling).
	// It is fit-time state gob skips: a reloaded tree predicts identically
	// but cannot be refitted with the same subsampling closure.
	FeatureOrder func(numFeatures int) []int

	// Nodes is the fitted tree in preorder: Nodes[0] is the root and every
	// child sits after its parent.
	Nodes  []node
	Fitted bool
}

type node struct {
	Feature     int     // split feature, -1 for leaves
	Thresh      float64 // go left when x[Feature] <= Thresh
	Value       float64 // leaf prediction
	Left, Right int     // child indices into Nodes, -1 for leaves
}

// check is what a decoded tree must pass before Predict walks it: a root,
// and under every split two children further down the slice, so a walk ends.
func (r *Regressor) check() error {
	if r.Fitted && len(r.Nodes) == 0 {
		return fmt.Errorf("ml/tree: fitted tree without nodes")
	}
	for i, n := range r.Nodes {
		if n.Feature >= 0 && (n.Left <= i || n.Left >= len(r.Nodes) || n.Right <= i || n.Right >= len(r.Nodes)) {
			return fmt.Errorf("ml/tree: node %d of %d has children %d and %d", i, len(r.Nodes), n.Left, n.Right)
		}
	}
	return nil
}

// New returns a tree with the given depth bound.
func New(maxDepth int) *Regressor {
	return &Regressor{MaxDepth: maxDepth, MinSamplesLeaf: 1, MinSamplesSplit: 2}
}

// Fit grows the tree.
func (r *Regressor) Fit(X [][]float64, y []float64) error { return r.FitShared(X, y, nil) }

// FitShared is Fit reusing the sort orders earlier fits recorded in orders,
// and recording its own. Every fit sharing one Orders must see the same X,
// unchanged, and the same configuration; a nil orders, or a tree with
// FeatureOrder, sorts every node afresh.
func (r *Regressor) FitShared(X [][]float64, y []float64, orders *Orders) error {
	if err := ml.CheckXY(X, y); err != nil {
		return err
	}
	if r.MinSamplesLeaf < 1 {
		r.MinSamplesLeaf = 1
	}
	if r.MinSamplesSplit < 2 {
		r.MinSamplesSplit = 2
	}
	if r.MaxFeatures < 0 {
		return fmt.Errorf("ml/tree: MaxFeatures=%d", r.MaxFeatures)
	}
	g := grower{
		r: r, X: X, y: y,
		sorted: make([]sample, len(X)),
		right:  make([]int, len(X)),
	}
	if r.FeatureOrder == nil {
		numFeatures := len(X[0])
		if r.MaxFeatures > 0 && r.MaxFeatures < numFeatures {
			numFeatures = r.MaxFeatures
		}
		g.feats = make([]int, numFeatures)
		for i := range g.feats {
			g.feats[i] = i
		}
		if orders != nil {
			orders.begin(X, numFeatures)
			g.orders = orders
		}
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	r.Nodes = nil
	g.grow(idx, 0)
	r.Fitted = true
	return nil
}

func mean(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// sse returns the sum of squared errors around the mean for idx.
func sse(y []float64, idx []int) float64 {
	m := mean(y, idx)
	var s float64
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

// sample is one training row as the split search sees it: the value of the
// feature under examination and the row's target.
type sample struct{ x, y float64 }

// grower is one Fit's state: the training set and the scratch every node of
// the recursion shares, so growing allocates nothing but the node slice.
type grower struct {
	r      *Regressor
	X      [][]float64
	y      []float64
	sorted []sample // the node's rows in feature order
	right  []int    // rows bound for the right child while idx is partitioned
	feats  []int    // the features every split examines; nil under FeatureOrder
	orders *Orders  // sort orders shared with other fits over X; nil for none
}

// grow appends the subtree over idx to r.Nodes and returns its root's index.
func (g *grower) grow(idx []int, depth int) int {
	r, X, y := g.r, g.X, g.y
	n := len(r.Nodes)
	r.Nodes = append(r.Nodes, node{Feature: -1, Value: mean(y, idx), Left: -1, Right: -1})
	if len(idx) < r.MinSamplesSplit {
		return n
	}
	if r.MaxDepth > 0 && depth >= r.MaxDepth {
		return n
	}
	parentSSE := sse(y, idx)
	if parentSSE == 0 {
		return n // pure node
	}

	bestGain := 0.0
	bestFeature := -1
	var bestThresh float64
	feats := g.feats
	if r.FeatureOrder != nil {
		feats = r.FeatureOrder(len(X[0]))
	}
	sorted := g.sorted[:len(idx)]
	orders, reuse := g.orders.find(idx)
	for fi, f := range feats {
		// The node's rows sorted by feature f. sortSamples leaves equal keys
		// in slices.SortFunc's order, which the sums below add in; its
		// permutation depends on the keys alone, so a recorded order is
		// reused, and a sort to record carries the row numbers in y.
		m := len(idx)
		switch {
		case reuse:
			for k, i := range orders[fi*m : (fi+1)*m] {
				sorted[k] = sample{X[i][f], y[i]}
			}
		case orders != nil:
			for k, i := range idx {
				sorted[k] = sample{X[i][f], float64(i)}
			}
			sortSamples(sorted)
			for k, s := range sorted {
				i := int32(s.y)
				orders[fi*m+k] = i
				sorted[k].y = y[i]
			}
		default:
			for k, i := range idx {
				sorted[k] = sample{X[i][f], y[i]}
			}
			sortSamples(sorted)
		}
		// Prefix sums over the sorted order for O(n) split evaluation.
		var sumL, sumSqL float64
		var sumR, sumSqR float64
		for _, s := range sorted {
			sumR += s.y
			sumSqR += s.y * s.y
		}
		nL := 0
		nR := len(sorted)
		for k, s := range sorted[:len(sorted)-1] {
			sumL += s.y
			sumSqL += s.y * s.y
			sumR -= s.y
			sumSqR -= s.y * s.y
			nL++
			nR--
			// Can't split between equal feature values.
			if s.x == sorted[k+1].x {
				continue
			}
			if nL < r.MinSamplesLeaf || nR < r.MinSamplesLeaf {
				continue
			}
			sseL := sumSqL - sumL*sumL/float64(nL)
			sseR := sumSqR - sumR*sumR/float64(nR)
			gain := parentSSE - (sseL + sseR)
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeature = f
				bestThresh = (s.x + sorted[k+1].x) / 2
			}
		}
	}
	if bestFeature < 0 {
		return n
	}
	// Partition idx in place, both sides keeping their order.
	nl, right := 0, g.right[:0]
	for _, i := range idx {
		if X[i][bestFeature] <= bestThresh {
			idx[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	if nl == 0 || len(right) == 0 {
		return n // numerical degeneracy
	}
	copy(idx[nl:], right)
	lc := g.grow(idx[:nl], depth+1)
	rc := g.grow(idx[nl:], depth+1)
	split := &r.Nodes[n] // taken after the subtrees' appends, which may move the slice
	split.Feature, split.Thresh, split.Left, split.Right = bestFeature, bestThresh, lc, rc
	return n
}

// Predict walks the tree.
func (r *Regressor) Predict(x []float64) float64 {
	if !r.Fitted {
		return 0
	}
	n := &r.Nodes[0]
	for n.Feature >= 0 {
		if x[n.Feature] <= n.Thresh {
			n = &r.Nodes[n.Left]
		} else {
			n = &r.Nodes[n.Right]
		}
	}
	return n.Value
}

var _ ml.Regressor = (*Regressor)(nil)

func init() { gob.RegisterName("ffr/tree.Regressor", &Regressor{}) }

// wire is Regressor without its methods: what gob sees of one.
type wire Regressor

// GobEncode exports the configuration and the fitted tree.
func (r *Regressor) GobEncode() ([]byte, error) { return ml.GobState((*wire)(r)) }

// GobDecode restores a tree.
func (r *Regressor) GobDecode(data []byte) error { return ml.UngobState(data, (*wire)(r), r.check) }
