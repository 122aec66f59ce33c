package tree

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ml/metrics"
)

func stepData() ([][]float64, []float64) {
	// Piecewise constant: y = 1 when x0 > 0.5, else 0; second feature is noise.
	X := [][]float64{
		{0.1, 5}, {0.2, -3}, {0.3, 1}, {0.4, 0},
		{0.6, 2}, {0.7, -1}, {0.8, 4}, {0.9, 9},
	}
	y := []float64{0, 0, 0, 0, 1, 1, 1, 1}
	return X, y
}

// depth returns the height of the fitted tree (a leaf-only tree has depth
// 0); -1 before Fit.
func depth(r *Regressor) int {
	if !r.Fitted {
		return -1
	}
	var rec func(int) int
	rec = func(i int) int {
		n := r.Nodes[i]
		if n.Feature < 0 {
			return 0
		}
		return 1 + max(rec(n.Left), rec(n.Right))
	}
	return rec(0)
}

func TestFitsStepFunctionExactly(t *testing.T) {
	X, y := stepData()
	m := New(3)
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for i := range X {
		if got := m.Predict(X[i]); got != y[i] {
			t.Fatalf("Predict(%v) = %v, want %v", X[i], got, y[i])
		}
	}
	if got := m.Predict([]float64{0.45, 0}); got != 0 {
		t.Fatalf("left side = %v, want 0", got)
	}
	if got := m.Predict([]float64{0.55, 0}); got != 1 {
		t.Fatalf("right side = %v, want 1", got)
	}
	if d := depth(m); d != 1 {
		t.Fatalf("depth = %d, want 1 (single split suffices)", d)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64()}
		y[i] = rng.Float64()
	}
	for _, maxDepth := range []int{1, 2, 3, 5} {
		m := New(maxDepth)
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		if got := depth(m); got > maxDepth {
			t.Fatalf("tree depth %d exceeds bound %d", got, maxDepth)
		}
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	X, y := stepData()
	m := &Regressor{MaxDepth: 10, MinSamplesLeaf: 5}
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// 8 samples with min leaf 5 → no legal split → a single leaf.
	if depth(m) != 0 {
		t.Fatalf("depth = %d, want 0 leaf-only", depth(m))
	}
	if got := m.Predict(X[0]); got != 0.5 {
		t.Fatalf("leaf mean = %v, want 0.5", got)
	}
}

func TestPureNodeStopsSplitting(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{7, 7, 7}
	m := New(0)
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if depth(m) != 0 {
		t.Fatalf("pure data must give leaf, depth=%d", depth(m))
	}
}

// Property: predictions are always within [min(y), max(y)] — leaves predict
// means of training subsets.
func TestPredictionRange(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		X := make([][]float64, n)
		y := make([]float64, n)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for i := range X {
			X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.NormFloat64()
			if y[i] < minY {
				minY = y[i]
			}
			if y[i] > maxY {
				maxY = y[i]
			}
		}
		m := New(6)
		if err := m.Fit(X, y); err != nil {
			return false
		}
		for k := 0; k < 20; k++ {
			q := []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
			p := m.Predict(q)
			if p < minY-1e-9 || p > maxY+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: deeper trees never fit the training set worse.
func TestDeeperTreesFitBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 100
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 10}
		y[i] = math.Sin(X[i][0])
	}
	var prev float64 = math.Inf(1)
	for _, depth := range []int{1, 2, 4, 8} {
		m := New(depth)
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		yhat := make([]float64, n)
		for i := range X {
			yhat[i] = m.Predict(X[i])
		}
		rmse := metrics.RMSE(y, yhat)
		if rmse > prev+1e-9 {
			t.Fatalf("depth %d RMSE %v worse than shallower %v", depth, rmse, prev)
		}
		prev = rmse
	}
}

func TestValidation(t *testing.T) {
	if err := New(1).Fit(nil, nil); err == nil {
		t.Fatal("empty data must fail")
	}
	m := &Regressor{MaxFeatures: -1}
	if err := m.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("negative MaxFeatures must fail")
	}
	fresh := New(1)
	if got := fresh.Predict([]float64{1}); got != 0 {
		t.Fatalf("unfitted Predict = %v", got)
	}
	if depth(fresh) != -1 {
		t.Fatal("unfitted Depth must be -1")
	}
}

func TestMaxFeaturesSubsetting(t *testing.T) {
	// With MaxFeatures=1 only feature 0 is examined (deterministic prefix),
	// so a function of feature 1 cannot be fit.
	X := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []float64{0, 1, 0, 1} // y = x1
	m := &Regressor{MaxDepth: 3, MaxFeatures: 1}
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// Feature 0 carries no signal → tree stays a leaf predicting 0.5.
	if got := m.Predict([]float64{0, 1}); got != 0.5 {
		t.Fatalf("Predict = %v, want 0.5 (cannot see feature 1)", got)
	}
}

// Fit allocates the node slice as it grows plus a fixed set of per-Fit
// scratch slices: the count grows with the logarithm of the tree (append's
// doublings), not with its nodes.
func TestFitAllocationsIndependentOfNodeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X := make([][]float64, 300)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = rng.NormFloat64()
	}
	allocations := func(maxDepth int) (float64, int) {
		m := New(maxDepth)
		allocs := testing.AllocsPerRun(5, func() {
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, len(m.Nodes)
	}
	stump, stumpNodes := allocations(1)
	deep, deepNodes := allocations(0)
	if deepNodes < 50*stumpNodes {
		t.Fatalf("fixture too shallow: %d vs %d nodes", deepNodes, stumpNodes)
	}
	if limit := stump + 2*float64(bits.Len(uint(deepNodes))); deep > limit {
		t.Errorf("%v allocations for %d nodes, %v for %d nodes; want at most %v",
			stump, stumpNodes, deep, deepNodes, limit)
	}
}
