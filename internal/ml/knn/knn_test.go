package knn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func grid2D() ([][]float64, []float64) {
	X := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {5, 5}}
	y := []float64{1, 2, 3, 4, 50}
	return X, y
}

func TestK1RecallsTrainingPoints(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.NormFloat64()
		}
		m := New(1)
		if err := m.Fit(X, y); err != nil {
			return false
		}
		for i := range X {
			got := m.Predict(X[i])
			// Duplicate points may average; accept any training target
			// at distance 0.
			ok := false
			for j := range X {
				if X[j][0] == X[i][0] && X[j][1] == X[i][1] && math.Abs(got-y[j]) < 1e-9 {
					ok = true
				}
			}
			// Averaged duplicates are fine too.
			if !ok && math.Abs(got-y[i]) > 10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestExactMatchDominates(t *testing.T) {
	X, y := grid2D()
	m := New(3)
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if got := m.Predict([]float64{0, 0}); got != 1 {
		t.Fatalf("exact match Predict = %v, want 1", got)
	}
}

func TestInverseDistanceWeighting(t *testing.T) {
	X := [][]float64{{0}, {3}}
	y := []float64{0, 1}
	m := New(2)
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// Query at 1: distances 1 and 2 → weights 1, 0.5 → (0*1+1*0.5)/1.5.
	got := m.Predict([]float64{1})
	want := 0.5 / 1.5
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("weighted Predict = %v, want %v", got, want)
	}
}

func TestNeighborsSorted(t *testing.T) {
	X, y := grid2D()
	m := New(3)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	_, dist, err := m.Neighbors([]float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(dist); i++ {
		if dist[i-1] > dist[i] {
			t.Fatalf("distances not ascending: %v", dist)
		}
	}
}

func TestValidation(t *testing.T) {
	X, y := grid2D()
	if err := New(0).Fit(X, y); err == nil {
		t.Fatal("k=0 must fail")
	}
	if err := New(99).Fit(X, y); err == nil {
		t.Fatal("k>n must fail")
	}
	for _, bad := range []*Regressor{{K: 1, Metric: 2}, {K: 1, Weights: 2}} {
		if err := bad.Fit(X, y); err == nil {
			t.Fatalf("metric %d with weighting %d is not implemented and must fail", bad.Metric, bad.Weights)
		}
	}
	m := New(1)
	if got := m.Predict([]float64{0, 0}); got != 0 {
		t.Fatalf("unfitted Predict = %v, want 0", got)
	}
	if _, _, err := m.Neighbors([]float64{0, 0}); err == nil {
		t.Fatal("unfitted Neighbors must fail")
	}
}

func TestFitCopiesData(t *testing.T) {
	X := [][]float64{{1}, {2}}
	y := []float64{1, 2}
	m := New(1)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	X[0][0] = 99
	y[0] = 99
	if got := m.Predict([]float64{1}); got != 1 {
		t.Fatalf("model must be insulated from caller mutation, got %v", got)
	}
}

// A query allocates its two result slices and nothing else: the heap lives
// in them and no distance or push boxes a value.
func TestNeighborsAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X := make([][]float64, 203)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = rng.NormFloat64()
	}
	m := New(7)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	q := []float64{0.1, -0.2, 0.3}
	if n := testing.AllocsPerRun(50, func() { m.Neighbors(q) }); n > 2 {
		t.Errorf("Neighbors allocates %v times per query, want <= 2", n)
	}
}
