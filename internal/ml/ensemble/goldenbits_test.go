package ensemble

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// tieHeavyData draws rows over features quantised to a handful of levels, a
// third of them exact duplicates of earlier rows: every split search sorts
// through runs of equal keys, whose order decides the bits of the result.
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

// predictionDigest folds the bits of every prediction into one FNV-1a word.
func predictionDigest(m interface{ Predict([]float64) float64 }, X [][]float64) string {
	h := uint64(14695981039346656037)
	for _, x := range X {
		b := math.Float64bits(m.Predict(x))
		for s := 0; s < 64; s += 8 {
			h = (h ^ (b >> s & 0xff)) * 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

// The digests below were recorded from the index-sort split search that
// tree.Fit used before its gathered-pair search (the reference kept in
// tree/equiv_test.go); a forest or a boosted ensemble over the same trees
// must keep predicting the same bits.
func TestEnsemblePredictionsGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; a target that fuses multiply-adds rounds differently")
	}
	X, y := tieHeavyData(13, 210, 6)
	teX, _ := tieHeavyData(14, 90, 6)
	all := append(append([][]float64(nil), X...), teX...)

	forest := NewForest(25, 10, 3)
	if err := forest.Fit(X, y); err != nil {
		t.Fatalf("forest: %v", err)
	}
	boost := NewBoosting(60, 0.1, 3)
	if err := boost.Fit(X, y); err != nil {
		t.Fatalf("boosting: %v", err)
	}
	stochastic := NewBoosting(40, 0.2, 4)
	stochastic.Subsample, stochastic.Seed = 0.6, 5
	if err := stochastic.Fit(X, y); err != nil {
		t.Fatalf("stochastic boosting: %v", err)
	}
	for _, c := range []struct {
		name string
		m    interface{ Predict([]float64) float64 }
		want string
	}{
		{"forest", forest, "3d8eef9072784500"},
		{"boosting", boost, "a1ce9db6dd352c51"},
		{"stochastic boosting", stochastic, "94830b5a06c140c7"},
	} {
		if got := predictionDigest(c.m, all); got != c.want {
			t.Errorf("%s: prediction digest %s, recorded %s", c.name, got, c.want)
		}
	}
}
