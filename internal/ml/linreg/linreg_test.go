package linreg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRecoversLinearFunction(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(5)
		n := d + 2 + rng.Intn(30)
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		b := rng.NormFloat64()
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			s := b
			for j := range X[i] {
				X[i][j] = rng.NormFloat64()
				s += w[j] * X[i][j]
			}
			y[i] = s
		}
		m := NewRidge(0)
		if err := m.Fit(X, y); err != nil {
			return false
		}
		for j := range w {
			if math.Abs(m.Weights[j]-w[j]) > 1e-7 {
				return false
			}
		}
		return math.Abs(m.Intercept-b) < 1e-7
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInterceptOnlyData(t *testing.T) {
	// Constant target: weights 0, intercept = constant.
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	m := NewRidge(0)
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if got := m.Predict([]float64{99}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Predict = %v, want 5", got)
	}
}

func TestUnderdeterminedRejected(t *testing.T) {
	X := [][]float64{{1, 2, 3}}
	y := []float64{1}
	if err := NewRidge(0).Fit(X, y); err == nil {
		t.Fatal("underdetermined OLS must fail")
	}
}

func TestDuplicateColumnRejectedByOLSAcceptedByRidge(t *testing.T) {
	X := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	y := []float64{1, 2, 3, 4}
	if err := NewRidge(0).Fit(X, y); err == nil {
		t.Fatal("collinear OLS must fail")
	}
	r := NewRidge(1e-6)
	if err := r.Fit(X, y); err != nil {
		t.Fatalf("ridge must handle collinearity: %v", err)
	}
	if got := r.Predict([]float64{2.5, 2.5}); math.Abs(got-2.5) > 1e-3 {
		t.Fatalf("ridge Predict = %v, want ~2.5", got)
	}
}

func TestUnfittedBehaviour(t *testing.T) {
	m := NewRidge(0)
	if got := m.Predict([]float64{1}); got != 0 {
		t.Fatalf("unfitted Predict = %v, want 0", got)
	}
}

func TestBadData(t *testing.T) {
	if err := NewRidge(0).Fit(nil, nil); err == nil {
		t.Fatal("empty data must fail")
	}
}
