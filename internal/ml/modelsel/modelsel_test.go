package modelsel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/knn"
	"repro/internal/ml/linreg"
	"repro/internal/ml/metrics"
)

func linearData(seed int64, n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		y[i] = 2*X[i][0] - X[i][1] + 0.1*rng.NormFloat64()
	}
	return X, y
}

func TestCrossValidate(t *testing.T) {
	X, y := linearData(1, 100)
	splits, err := ml.StratifiedKFoldSplits(y, 5, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CrossValidate(func() ml.Regressor { return linreg.NewRidge(0) }, X, y, splits)
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	if len(res.TestScores) != 5 {
		t.Fatalf("scores per split: %d", len(res.TestScores))
	}
	if r2 := res.MeanTest().R2; r2 < 0.95 {
		t.Fatalf("linear model on linear data R² = %v, want > 0.95", r2)
	}
	// Overfit sanity: a model scored on its own training partition should not
	// trail its held-out score badly.
	var trainR2 float64
	for _, sp := range splits {
		trX, trY := ml.Gather(X, y, sp.Train)
		m := linreg.NewRidge(0)
		if err := m.Fit(trX, trY); err != nil {
			t.Fatal(err)
		}
		trainR2 += metrics.R2(trY, ml.PredictAll(m, trX)) / float64(len(splits))
	}
	if trainR2 < res.MeanTest().R2-0.1 {
		t.Fatal("train score should not trail test score badly")
	}
}

func TestCrossValidateErrors(t *testing.T) {
	X, y := linearData(1, 10)
	if _, err := CrossValidate(func() ml.Regressor { return linreg.NewRidge(0) }, X, y, nil); err == nil {
		t.Fatal("no splits must fail")
	}
	if _, err := CrossValidate(func() ml.Regressor { return linreg.NewRidge(0) }, nil, nil, nil); err == nil {
		t.Fatal("empty data must fail")
	}
	// A fold too small for OLS surfaces the model error.
	bad := []ml.Split{{Train: []int{0}, Test: []int{1}}}
	if _, err := CrossValidate(func() ml.Regressor { return linreg.NewRidge(0) }, X, y, bad); err == nil {
		t.Fatal("model failure must propagate")
	}
}

func TestRangeSample(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lin := Range{Min: 1, Max: 9}
	logr := Range{Min: 0.001, Max: 1000, Log: true}
	intr := Range{Min: 1, Max: 10, Integer: true}
	var sawLowDecade bool
	for i := 0; i < 200; i++ {
		if v := lin.Sample(rng); v < 1 || v > 9 {
			t.Fatalf("linear sample %v out of range", v)
		}
		v := logr.Sample(rng)
		if v < 0.001 || v > 1000 {
			t.Fatalf("log sample %v out of range", v)
		}
		if v < 0.01 {
			sawLowDecade = true
		}
		iv := intr.Sample(rng)
		if iv != math.Round(iv) {
			t.Fatalf("integer sample %v not integral", iv)
		}
	}
	if !sawLowDecade {
		t.Fatal("log sampling never hit the low decades — not log-uniform")
	}
}

func TestRandomSearchFindsGoodK(t *testing.T) {
	// k-NN on smooth data: very large k underfits badly, small k works.
	rng := rand.New(rand.NewSource(4))
	n := 120
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := rng.Float64() * 10
		X[i] = []float64{x}
		y[i] = math.Sin(x)
	}
	splits, err := ml.StratifiedKFoldSplits(y, 5, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	build := func(p Params) ml.Regressor { return knn.New(int(p["k"])) }
	res, err := RandomSearch(CrossValidated(build), map[string]Range{
		"k": {Min: 1, Max: 60, Integer: true},
	}, 15, X, y, splits, 9)
	if err != nil {
		t.Fatalf("RandomSearch: %v", err)
	}
	if res.Evaluated != 15 {
		t.Fatalf("evaluated %d, want 15", res.Evaluated)
	}
	if res.Best["k"] > 20 {
		t.Fatalf("best k = %v, expected something small", res.Best["k"])
	}
	if res.BestScore < 0.9 {
		t.Fatalf("best score %v too low", res.BestScore)
	}
}

func TestRandomSearchValidation(t *testing.T) {
	if _, err := RandomSearch(nil, nil, 0, nil, nil, nil, 1); err == nil {
		t.Fatal("n=0 must fail")
	}
}

func TestGridSearchExhaustive(t *testing.T) {
	X, y := linearData(5, 60)
	splits, _ := ml.StratifiedKFoldSplits(y, 4, 5, 6)
	calls := 0
	build := func(p Params) ml.Regressor {
		calls++
		return linreg.NewRidge(p["lambda"])
	}
	res, err := GridSearch(CrossValidated(build), map[string][]float64{
		"lambda": {0.001, 0.01, 0.1, 1},
		"unused": {1, 2, 3},
	}, X, y, splits)
	if err != nil {
		t.Fatalf("GridSearch: %v", err)
	}
	if res.Evaluated != 12 {
		t.Fatalf("evaluated %d combinations, want 12", res.Evaluated)
	}
	if calls != 12*len(splits) {
		t.Fatalf("model built %d times, want %d", calls, 12*len(splits))
	}
	if res.Best["lambda"] > 0.5 {
		t.Fatalf("best lambda %v suspiciously large for clean linear data", res.Best["lambda"])
	}
}

func TestGridSearchValidation(t *testing.T) {
	if _, err := GridSearch(nil, nil, nil, nil, nil); err == nil {
		t.Fatal("empty grid must fail")
	}
	if _, err := GridSearch(nil, map[string][]float64{"a": {}}, nil, nil, nil); err == nil {
		t.Fatal("empty grid values must fail")
	}
}

// A search hands its Scorer the whole stage, in sampling or grid order, and
// keeps the first of the best scores; a NaN never wins.
func TestSearchScoresStageAsOneBatch(t *testing.T) {
	var stages [][]Params
	score := func(ps []Params, _ [][]float64, _ []float64, _ []ml.Split) ([]float64, error) {
		stages = append(stages, ps)
		scores := make([]float64, len(ps))
		for i, p := range ps {
			scores[i] = map[float64]float64{1: 0.5, 2: 0.9, 3: math.NaN(), 4: 0.9}[p["a"]]
		}
		return scores, nil
	}
	res, err := GridSearch(score, map[string][]float64{"a": {3, 1, 2, 4}}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 || len(stages[0]) != 4 || stages[0][0]["a"] != 3 || stages[0][3]["a"] != 4 {
		t.Fatalf("scorer saw stages %v, want one stage of 3, 1, 2, 4", stages)
	}
	if res.Best["a"] != 2 || res.BestScore != 0.9 || res.Evaluated != 4 {
		t.Fatalf("best %v (%v over %d), want a=2, the first of two 0.9s, over 4", res.Best, res.BestScore, res.Evaluated)
	}

	stages = nil
	space := map[string]Range{"a": {Min: 1, Max: 4, Integer: true}}
	res, err = RandomSearch(score, space, 7, nil, nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i, p := range stages[0] {
		if want := space["a"].Sample(rng); len(stages) != 1 || p["a"] != want {
			t.Fatalf("stage %v: sample %d is not the seed's draw %v", stages, i, want)
		}
	}
	if res.Evaluated != 7 {
		t.Fatalf("evaluated %d, want 7", res.Evaluated)
	}
}

func TestRefineGrid(t *testing.T) {
	grid := RefineGrid(Params{"c": 10, "k": 5}, map[string]bool{"c": true}, 5, 2)
	if len(grid["c"]) != 5 || len(grid["k"]) != 5 {
		t.Fatalf("grid sizes wrong: %v", grid)
	}
	if grid["c"][0] != 2.5 || grid["c"][4] != 40 {
		t.Fatalf("log refinement wrong: %v", grid["c"])
	}
	if grid["k"][0] != 1 || grid["k"][4] != 9 {
		t.Fatalf("linear refinement wrong: %v", grid["k"])
	}
}

func TestLearningCurveShape(t *testing.T) {
	X, y := linearData(6, 200)
	splits, _ := ml.StratifiedKFoldSplits(y, 5, 5, 7)
	fracs := []float64{0.1, 0.3, 0.5, 0.8, 1.0}
	points, err := LearningCurve(func() ml.Regressor { return linreg.NewRidge(0) }, X, y, fracs, splits, 8)
	if err != nil {
		t.Fatalf("LearningCurve: %v", err)
	}
	if len(points) != len(fracs) {
		t.Fatalf("points = %d", len(points))
	}
	for i, p := range points {
		if p.TrainFrac != fracs[i] {
			t.Fatalf("point %d frac %v", i, p.TrainFrac)
		}
	}
	// On clean linear data the test score must be high at full size and
	// not decrease dramatically from half size (plateau behavior).
	last := points[len(points)-1]
	if last.TestScore < 0.95 {
		t.Fatalf("final test score %v too low", last.TestScore)
	}
	mid := points[2]
	if mid.TestScore < last.TestScore-0.05 {
		t.Fatalf("score at 50%% (%v) far below final (%v) — no plateau", mid.TestScore, last.TestScore)
	}
}

func TestLearningCurveValidation(t *testing.T) {
	X, y := linearData(7, 20)
	splits, _ := ml.StratifiedKFoldSplits(y, 4, 5, 1)
	if _, err := LearningCurve(func() ml.Regressor { return linreg.NewRidge(0) }, X, y, nil, splits, 1); err == nil {
		t.Fatal("no fractions must fail")
	}
	if _, err := LearningCurve(func() ml.Regressor { return linreg.NewRidge(0) }, X, y, []float64{2}, splits, 1); err == nil {
		t.Fatal("fraction > 1 must fail")
	}
	if _, err := LearningCurve(func() ml.Regressor { return linreg.NewRidge(0) }, X, y, []float64{0.5}, nil, 1); err == nil {
		t.Fatal("no splits must fail")
	}
}

func TestMeanScoresEmpty(t *testing.T) {
	var r CVResult
	if r.MeanTest().R2 != 0 {
		t.Fatal("empty mean must be zero value")
	}
}
