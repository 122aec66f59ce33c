package ml

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCheckXY(t *testing.T) {
	if err := CheckXY(nil, nil); !errors.Is(err, ErrBadData) {
		t.Fatal("empty must fail")
	}
	if err := CheckXY([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrBadData) {
		t.Fatal("length mismatch must fail")
	}
	if err := CheckXY([][]float64{{1}, {1, 2}}, []float64{1, 2}); !errors.Is(err, ErrBadData) {
		t.Fatal("ragged must fail")
	}
	if err := CheckXY([][]float64{{}}, []float64{1}); !errors.Is(err, ErrBadData) {
		t.Fatal("zero width must fail")
	}
	if err := CheckXY([][]float64{{1, 2}, {3, 4}}, []float64{1, 2}); err != nil {
		t.Fatalf("valid data rejected: %v", err)
	}
}

func TestGather(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{10, 20, 30}
	gx, gy := Gather(X, y, []int{2, 0})
	if gx[0][0] != 3 || gx[1][0] != 1 || gy[0] != 30 || gy[1] != 10 {
		t.Fatalf("gather wrong: %v %v", gx, gy)
	}
}

func TestStandardScaler(t *testing.T) {
	X := [][]float64{{1, 10, 5}, {3, 10, 7}, {5, 10, 9}}
	var s StandardScaler
	if err := s.Fit(X); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	out := s.Transform(X)
	// Column 0: mean 3, std sqrt(8/3).
	for j := 0; j < 3; j++ {
		var mean float64
		for i := range out {
			mean += out[i][j]
		}
		if math.Abs(mean) > 1e-12 {
			t.Fatalf("column %d mean = %v, want 0", j, mean/3)
		}
	}
	// Constant column must not blow up.
	if out[0][1] != 0 || out[2][1] != 0 {
		t.Fatalf("constant column transformed to %v", out[0][1])
	}
	// Unit variance on varying columns.
	var ss float64
	for i := range out {
		ss += out[i][0] * out[i][0]
	}
	if math.Abs(ss/3-1) > 1e-12 {
		t.Fatalf("column 0 variance = %v, want 1", ss/3)
	}
	// Original data untouched.
	if X[0][0] != 1 {
		t.Fatal("Transform must not modify input")
	}
}

func TestStandardScalerErrors(t *testing.T) {
	var s StandardScaler
	if err := s.Fit(nil); err == nil {
		t.Fatal("empty must fail")
	}
	if err := s.Fit([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged must fail")
	}
}

// Property: standard scaling is idempotent on already-scaled data.
func TestStandardScalerIdempotent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 3+rng.Intn(20), 1+rng.Intn(5)
		X := make([][]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = rng.NormFloat64()*5 + 3
			}
		}
		var s1 StandardScaler
		if err := s1.Fit(X); err != nil {
			return false
		}
		once := s1.Transform(X)
		var s2 StandardScaler
		if err := s2.Fit(once); err != nil {
			return false
		}
		twice := s2.Transform(once)
		for i := range once {
			for j := range once[i] {
				if math.Abs(once[i][j]-twice[i][j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStratifiedShuffleSplits(t *testing.T) {
	// Bimodal target: half at 0, half at 1.
	y := make([]float64, 40)
	for i := 20; i < 40; i++ {
		y[i] = 1
	}
	splits, err := StratifiedShuffleSplits(y, 10, 0.5, 4, 7)
	if err != nil {
		t.Fatalf("StratifiedShuffleSplits: %v", err)
	}
	if len(splits) != 10 {
		t.Fatalf("splits = %d", len(splits))
	}
	for si, sp := range splits {
		if len(sp.Train)+len(sp.Test) != 40 {
			t.Fatalf("split %d loses samples", si)
		}
		// Stratification: training set must hold ~half of each mode.
		var lowTrain, highTrain int
		for _, i := range sp.Train {
			if y[i] == 0 {
				lowTrain++
			} else {
				highTrain++
			}
		}
		if lowTrain < 8 || lowTrain > 12 || highTrain < 8 || highTrain > 12 {
			t.Fatalf("split %d unbalanced: low=%d high=%d", si, lowTrain, highTrain)
		}
	}
}

func TestStratifiedShuffleSplitsErrors(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if _, err := StratifiedShuffleSplits(y[:1], 2, 0.5, 2, 1); err == nil {
		t.Fatal("n<2 must fail")
	}
	if _, err := StratifiedShuffleSplits(y, 0, 0.5, 2, 1); err == nil {
		t.Fatal("nSplits=0 must fail")
	}
	if _, err := StratifiedShuffleSplits(y, 2, 0, 2, 1); err == nil {
		t.Fatal("frac=0 must fail")
	}
	if _, err := StratifiedShuffleSplits(y, 2, 0.5, 0, 1); err == nil {
		t.Fatal("bins=0 must fail")
	}
	// bins > n is clamped, not an error.
	if _, err := StratifiedShuffleSplits(y, 2, 0.5, 100, 1); err != nil {
		t.Fatalf("bins>n must clamp: %v", err)
	}
}

func TestStratifiedKFoldSplits(t *testing.T) {
	y := make([]float64, 30)
	for i := range y {
		y[i] = float64(i)
	}
	splits, err := StratifiedKFoldSplits(y, 5, 5, 3)
	if err != nil {
		t.Fatalf("StratifiedKFoldSplits: %v", err)
	}
	testCount := map[int]int{}
	for _, sp := range splits {
		for _, i := range sp.Test {
			testCount[i]++
		}
	}
	for i := range y {
		if testCount[i] != 1 {
			t.Fatalf("index %d tested %d times", i, testCount[i])
		}
	}
	if _, err := StratifiedKFoldSplits(y, 1, 5, 3); err == nil {
		t.Fatal("k=1 must fail")
	}
	if _, err := StratifiedKFoldSplits(y, 5, 0, 3); err == nil {
		t.Fatal("bins=0 must fail")
	}
}

func TestTargetBins(t *testing.T) {
	y := []float64{5, 1, 3, 2, 4} // ranks: 4,0,2,1,3
	bins := targetBins(y, 5)
	want := []int{4, 0, 2, 1, 3}
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
	// Two bins split low/high halves.
	b2 := targetBins(y, 2)
	sort.Ints(b2)
	if b2[0] != 0 || b2[4] != 1 {
		t.Fatalf("2-bin split wrong: %v", b2)
	}
}

// fakeModel predicts a constant; used to test Pipeline wiring.
type fakeModel struct {
	fitRows int
	sawX    [][]float64
}

func (f *fakeModel) Fit(X [][]float64, y []float64) error {
	f.fitRows = len(X)
	f.sawX = X
	return nil
}
func (f *fakeModel) Predict(x []float64) float64 { return x[0] }

func TestPipelineScalesBeforeModel(t *testing.T) {
	fm := &fakeModel{}
	p := &Pipeline{Scaler: &StandardScaler{}, Model: fm}
	X := [][]float64{{10}, {20}, {30}}
	y := []float64{1, 2, 3}
	if err := p.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if fm.fitRows != 3 {
		t.Fatal("model not fitted")
	}
	// The model must have seen standardized rows (mean 0).
	var mean float64
	for _, r := range fm.sawX {
		mean += r[0]
	}
	if math.Abs(mean) > 1e-12 {
		t.Fatalf("model saw unscaled data, mean=%v", mean)
	}
	// Predict(20) (the column mean) → standardized 0.
	if got := p.Predict([]float64{20}); math.Abs(got) > 1e-12 {
		t.Fatalf("Predict = %v, want 0", got)
	}
}

func TestPipelineNilScaler(t *testing.T) {
	fm := &fakeModel{}
	p := &Pipeline{Model: fm}
	if err := p.Fit([][]float64{{7}}, []float64{1}); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if got := p.Predict([]float64{7}); got != 7 {
		t.Fatalf("Predict = %v, want passthrough 7", got)
	}
}

func TestPredictAll(t *testing.T) {
	fm := &fakeModel{}
	out := PredictAll(fm, [][]float64{{1}, {2}})
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("PredictAll = %v", out)
	}
}
