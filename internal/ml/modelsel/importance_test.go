package modelsel

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/knn"
	"repro/internal/ml/linreg"
)

func TestPermutationImportanceFindsSignal(t *testing.T) {
	// y depends only on features 0 and 2; feature 1 is noise.
	rng := rand.New(rand.NewSource(1))
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = 3*X[i][0] - 2*X[i][2]
	}
	splits, err := ml.StratifiedShuffleSplits(y, 1, 0.6, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	split := splits[0]
	imp, err := PermutationImportance(func() ml.Regressor { return linreg.NewRidge(0) },
		X, y, split, 5, 3)
	if err != nil {
		t.Fatalf("PermutationImportance: %v", err)
	}
	if len(imp) != 3 {
		t.Fatalf("importances = %d", len(imp))
	}
	if imp[0].MeanDrop < 0.1 || imp[2].MeanDrop < 0.1 {
		t.Fatalf("informative features not detected: %+v", imp)
	}
	if imp[1].MeanDrop > imp[0].MeanDrop/10 || imp[1].MeanDrop > imp[2].MeanDrop/10 {
		t.Fatalf("noise feature ranked too high: %+v", imp)
	}
	// Feature 0 (coefficient 3) should beat feature 2 (coefficient -2).
	if imp[0].MeanDrop <= imp[2].MeanDrop {
		t.Fatalf("importance ordering wrong: %+v", imp)
	}
}

func TestPermutationImportanceWithKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 150
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = X[i][0] * X[i][0] // nonlinear, feature 0 only
	}
	splits, err := ml.StratifiedShuffleSplits(y, 1, 0.5, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	split := splits[0]
	imp, err := PermutationImportance(func() ml.Regressor { return knn.New(3) },
		X, y, split, 3, 7)
	if err != nil {
		t.Fatalf("PermutationImportance: %v", err)
	}
	sorted := append([]FeatureImportance(nil), imp...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].MeanDrop > sorted[b].MeanDrop })
	if sorted[0].Feature != 0 {
		t.Fatalf("feature 0 must rank first: %+v", imp)
	}
}

func TestPermutationImportanceValidation(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1, 2, 3, 4}
	factory := func() ml.Regressor { return knn.New(1) }
	if _, err := PermutationImportance(factory, nil, nil, ml.Split{}, 1, 1); err == nil {
		t.Fatal("empty data must fail")
	}
	if _, err := PermutationImportance(factory, X, y, ml.Split{Train: []int{0, 1}, Test: []int{2, 3}}, 0, 1); err == nil {
		t.Fatal("repeats=0 must fail")
	}
	if _, err := PermutationImportance(factory, X, y, ml.Split{}, 1, 1); err == nil {
		t.Fatal("empty split must fail")
	}
}
