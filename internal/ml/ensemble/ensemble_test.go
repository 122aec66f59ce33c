package ensemble

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml/metrics"
	"repro/internal/ml/tree"
)

// friedmanLike generates a nonlinear regression problem.
func friedmanLike(rng *rand.Rand, n int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, 5)
		for j := range X[i] {
			X[i][j] = rng.Float64()
		}
		y[i] = 10*math.Sin(math.Pi*X[i][0]*X[i][1]) +
			20*(X[i][2]-0.5)*(X[i][2]-0.5) + 10*X[i][3] + 5*X[i][4]
	}
	return X, y
}

func trainTestR2(t *testing.T, fit func(X [][]float64, y []float64) interface {
	Predict([]float64) float64
}) (float64, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	X, y := friedmanLike(rng, 300)
	teX, teY := friedmanLike(rng, 100)
	m := fit(X, y)
	trHat := make([]float64, len(X))
	for i := range X {
		trHat[i] = m.Predict(X[i])
	}
	teHat := make([]float64, len(teX))
	for i := range teX {
		teHat[i] = m.Predict(teX[i])
	}
	return metrics.R2(y, trHat), metrics.R2(teY, teHat)
}

func TestForestBeatsStump(t *testing.T) {
	_, forestTest := trainTestR2(t, func(X [][]float64, y []float64) interface {
		Predict([]float64) float64
	} {
		f := NewForest(60, 8, 1)
		if err := f.Fit(X, y); err != nil {
			t.Fatalf("forest Fit: %v", err)
		}
		return f
	})
	_, stumpTest := trainTestR2(t, func(X [][]float64, y []float64) interface {
		Predict([]float64) float64
	} {
		s := tree.New(1)
		if err := s.Fit(X, y); err != nil {
			t.Fatalf("stump Fit: %v", err)
		}
		return s
	})
	if forestTest < 0.7 {
		t.Fatalf("forest test R² = %v, want > 0.7", forestTest)
	}
	if forestTest <= stumpTest {
		t.Fatalf("forest (%v) must beat a stump (%v)", forestTest, stumpTest)
	}
}

func TestBoostingBeatsStump(t *testing.T) {
	_, boostTest := trainTestR2(t, func(X [][]float64, y []float64) interface {
		Predict([]float64) float64
	} {
		g := NewBoosting(150, 0.1, 3)
		if err := g.Fit(X, y); err != nil {
			t.Fatalf("boosting Fit: %v", err)
		}
		return g
	})
	if boostTest < 0.85 {
		t.Fatalf("boosting test R² = %v, want > 0.85", boostTest)
	}
}

func TestBoostingMoreStagesFitTighter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := friedmanLike(rng, 150)
	prev := math.Inf(1)
	for _, stages := range []int{5, 25, 100} {
		g := NewBoosting(stages, 0.2, 3)
		if err := g.Fit(X, y); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		yhat := make([]float64, len(X))
		for i := range X {
			yhat[i] = g.Predict(X[i])
		}
		rmse := metrics.RMSE(y, yhat)
		if rmse > prev+1e-9 {
			t.Fatalf("%d stages RMSE %v worse than fewer (%v)", stages, rmse, prev)
		}
		prev = rmse
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := friedmanLike(rng, 80)
	a, b := NewForest(10, 5, 42), NewForest(10, 5, 42)
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	q := X[3]
	if a.Predict(q) != b.Predict(q) {
		t.Fatal("same seed must give identical forests")
	}
	c := NewForest(10, 5, 43)
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if a.Predict(q) == c.Predict(q) {
		t.Log("different seed gave same prediction (possible but unlikely)")
	}
}

func TestSubsampledBoosting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := friedmanLike(rng, 120)
	g := &GradientBoosting{Stages: 80, LearningRate: 0.1, MaxDepth: 3, Subsample: 0.5, Seed: 1}
	if err := g.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	yhat := make([]float64, len(X))
	for i := range X {
		yhat[i] = g.Predict(X[i])
	}
	if r2 := metrics.R2(y, yhat); r2 < 0.8 {
		t.Fatalf("stochastic boosting R² = %v, want > 0.8", r2)
	}
}

func TestEnsembleValidation(t *testing.T) {
	if err := NewForest(5, 2, 1).Fit(nil, nil); err == nil {
		t.Fatal("forest empty data must fail")
	}
	if err := NewBoosting(5, 0.1, 2).Fit(nil, nil); err == nil {
		t.Fatal("boosting empty data must fail")
	}
	f := NewForest(5, 2, 1)
	if got := f.Predict([]float64{1}); got != 0 {
		t.Fatalf("unfitted forest Predict = %v", got)
	}
	g := NewBoosting(5, 0.1, 2)
	if got := g.Predict([]float64{1}); got != 0 {
		t.Fatalf("unfitted boosting Predict = %v", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := friedmanLike(rng, 30)
	f := &RandomForest{} // all defaults
	if err := f.Fit(X, y); err != nil {
		t.Fatalf("default forest Fit: %v", err)
	}
	if f.Trees != 100 {
		t.Fatalf("default Trees = %d, want 100", f.Trees)
	}
	g := &GradientBoosting{}
	if err := g.Fit(X, y); err != nil {
		t.Fatalf("default boosting Fit: %v", err)
	}
	if g.Stages != 200 || g.LearningRate != 0.1 || g.MaxDepth != 3 {
		t.Fatalf("boosting defaults wrong: %+v", g)
	}
}

// Without subsampling every stage fits all of X and takes the sort orders
// earlier stages recorded wherever a node's row set recurs; that must not
// move a bit of any prediction. A subsampled stage fits other rows each
// time and must not use the orders at all.
func TestBoostingSharedOrdersBitIdentical(t *testing.T) {
	X, y := tieHeavyData(21, 240, 6)
	teX, _ := tieHeavyData(22, 80, 6)
	for _, subsample := range []float64{1, 0.6} {
		build := func() *GradientBoosting {
			return &GradientBoosting{Stages: 60, LearningRate: 0.1, MaxDepth: 3, Subsample: subsample, Seed: 4}
		}
		plain, shared := build(), build()
		if err := plain.fit(X, y, nil); err != nil {
			t.Fatalf("subsample %v, fresh sorts: %v", subsample, err)
		}
		var orders tree.Orders
		if err := shared.fit(X, y, &orders); err != nil {
			t.Fatalf("subsample %v, shared orders: %v", subsample, err)
		}
		for i, x := range append(append([][]float64(nil), X...), teX...) {
			if got, want := shared.Predict(x), plain.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("subsample %v, row %d: %v with shared orders, %v with fresh sorts", subsample, i, got, want)
			}
		}
		switch reused := orders.Reused(); {
		case subsample == 1 && reused == 0:
			t.Errorf("subsample 1: no node reused an earlier stage's orders")
		case subsample < 1 && reused != 0:
			t.Errorf("subsample %v: %d nodes reused orders across different rows", subsample, reused)
		}
	}
}
