package tree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refGrow is the split search grow replaced, kept verbatim as the reference:
// an index slice sorted through sort.Slice, fresh slices per node. The order
// in which equal feature values come out of the sort decides the order the
// prefix sums add targets in, hence the bits of every gain and leaf mean, so
// grow must reproduce that permutation exactly (docs/ARCHITECTURE.md, "ML
// numerics").
func refGrow(r *Regressor, X [][]float64, y []float64, idx []int, depth int) *refNode {
	leaf := &refNode{feature: -1, value: mean(y, idx)}
	if len(idx) < r.MinSamplesSplit {
		return leaf
	}
	if r.MaxDepth > 0 && depth >= r.MaxDepth {
		return leaf
	}
	parentSSE := sse(y, idx)
	if parentSSE == 0 {
		return leaf
	}

	bestGain := 0.0
	bestFeature := -1
	var bestThresh float64
	order := make([]int, len(idx))
	for _, f := range refCandidateFeatures(r, len(X[0])) {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		var sumL, sumSqL float64
		var sumR, sumSqR float64
		for _, i := range order {
			sumR += y[i]
			sumSqR += y[i] * y[i]
		}
		nL := 0
		nR := len(order)
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			sumL += y[i]
			sumSqL += y[i] * y[i]
			sumR -= y[i]
			sumSqR -= y[i] * y[i]
			nL++
			nR--
			if X[order[k]][f] == X[order[k+1]][f] {
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
				bestThresh = (X[order[k]][f] + X[order[k+1]][f]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return leaf
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if X[i][bestFeature] <= bestThresh {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return leaf
	}
	return &refNode{
		feature: bestFeature,
		thresh:  bestThresh,
		value:   leaf.value,
		left:    refGrow(r, X, y, leftIdx, depth+1),
		right:   refGrow(r, X, y, rightIdx, depth+1),
	}
}

func refCandidateFeatures(r *Regressor, numFeatures int) []int {
	if r.FeatureOrder != nil {
		return r.FeatureOrder(numFeatures)
	}
	feats := make([]int, numFeatures)
	for i := range feats {
		feats[i] = i
	}
	if r.MaxFeatures > 0 && r.MaxFeatures < numFeatures {
		return feats[:r.MaxFeatures]
	}
	return feats
}

// refNode is the pointer tree refGrow builds, and refFlatten its preorder
// walk into the slice Fit grows in place.
type refNode struct {
	feature     int
	thresh      float64
	value       float64
	left, right *refNode
}

func refFlatten(n *refNode, out *[]node) int {
	if n == nil {
		return -1
	}
	idx := len(*out)
	*out = append(*out, node{Feature: n.feature, Thresh: n.thresh, Value: n.value, Left: -1, Right: -1})
	(*out)[idx].Left = refFlatten(n.left, out)
	(*out)[idx].Right = refFlatten(n.right, out)
	return idx
}

// refFit is Fit over refGrow. Call it on a tree whose defaults are resolved.
func refFit(r *Regressor, X [][]float64, y []float64) []node {
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	var nodes []node
	refFlatten(refGrow(r, X, y, idx, 0), &nodes)
	return nodes
}

// tieHeavyData draws n rows over width features quantised to a handful of
// levels, one third of the rows exact duplicates of earlier ones with their
// own targets: nearly every sort meets runs of equal keys.
func tieHeavyData(seed int64, n, width int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		if i >= 2*n/3 {
			X[i] = X[rng.Intn(2*n/3)]
		} else {
			X[i] = make([]float64, width)
			for j := range X[i] {
				X[i][j] = math.Round(rng.NormFloat64()*float64(1+j%4)) / 2
			}
		}
		y[i] = X[i][0] - 0.5*X[i][1]*X[i][2] + 0.3*rng.NormFloat64()
	}
	return X, y
}

func requireSameTree(t *testing.T, what string, got *Regressor, want []node) {
	t.Helper()
	nodes := got.Nodes
	if len(nodes) != len(want) {
		t.Fatalf("%s: %d nodes, reference split search grows %d", what, len(nodes), len(want))
	}
	for i, w := range want {
		g := nodes[i]
		if g.Feature != w.Feature || g.Left != w.Left || g.Right != w.Right ||
			math.Float64bits(g.Thresh) != math.Float64bits(w.Thresh) ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("%s: node %d = %+v, reference split search gives %+v", what, i, g, w)
		}
	}
}

func TestFitBitIdenticalToIndexSort(t *testing.T) {
	X, y := tieHeavyData(3, 240, 6)
	configs := []Regressor{
		{MaxDepth: 3, MinSamplesLeaf: 1, MinSamplesSplit: 2},
		{MaxDepth: 8, MinSamplesLeaf: 1, MinSamplesSplit: 2},
		{MaxDepth: 0, MinSamplesLeaf: 1, MinSamplesSplit: 2},
		{MaxDepth: 0, MinSamplesLeaf: 4, MinSamplesSplit: 10},
		{MaxDepth: 6, MinSamplesLeaf: 2, MinSamplesSplit: 2, MaxFeatures: 2},
	}
	for ci, cfg := range configs {
		got, ref := cfg, cfg
		if err := got.Fit(X, y); err != nil {
			t.Fatalf("config %d: Fit: %v", ci, err)
		}
		requireSameTree(t, "plain tree", &got, refFit(&ref, X, y))
	}
}

// The ensembles call Fit the way these two tests do: a forest member sees a
// bootstrap resample (duplicated rows by construction) and draws a random
// feature subset per node; a boosting stage sees the residuals of the stages
// before it.
func TestFitBitIdenticalForestStyle(t *testing.T) {
	X, y := tieHeavyData(5, 180, 7)
	rng := rand.New(rand.NewSource(9))
	n := len(X)
	bx := make([][]float64, n)
	by := make([]float64, n)
	for member := 0; member < 12; member++ {
		for i := range bx {
			j := rng.Intn(n)
			bx[i], by[i] = X[j], y[j]
		}
		seed := rng.Int63()
		build := func() *Regressor {
			treeRng := rand.New(rand.NewSource(seed))
			return &Regressor{MaxDepth: 12, MinSamplesLeaf: 1, MinSamplesSplit: 2,
				FeatureOrder: func(nf int) []int { return treeRng.Perm(nf)[:2] }}
		}
		got := build()
		if err := got.Fit(bx, by); err != nil {
			t.Fatalf("member %d: Fit: %v", member, err)
		}
		requireSameTree(t, "forest member", got, refFit(build(), bx, by))
	}
}

// The stages share one Orders, as GradientBoosting's do, so most of their
// nodes take the sort orders an earlier stage recorded; each stage must
// still grow the reference's tree.
func TestFitBitIdenticalBoostingStyle(t *testing.T) {
	X, y := tieHeavyData(7, 200, 5)
	pred := make([]float64, len(y))
	resid := make([]float64, len(y))
	var orders Orders
	for stage := 0; stage < 40; stage++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		got := &Regressor{MaxDepth: 3, MinSamplesLeaf: 1, MinSamplesSplit: 2}
		if err := got.FitShared(X, resid, &orders); err != nil {
			t.Fatalf("stage %d: Fit: %v", stage, err)
		}
		requireSameTree(t, "boosting stage", got, refFit(&Regressor{MaxDepth: 3, MinSamplesLeaf: 1, MinSamplesSplit: 2}, X, resid))
		for i := range pred {
			pred[i] += 0.1 * got.Predict(X[i])
		}
	}
	if orders.Reused() == 0 {
		t.Fatal("no stage reused an earlier stage's sort orders")
	}
}
