package svr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml/metrics"
)

func TestFitsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 60
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()}
		y[i] = 2*X[i][0] + 1
	}
	m := New(100, 0.1, 0.01) // a wide RBF is near-linear over the sampled range
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for _, q := range []float64{-1, 0, 0.5, 1.5} {
		got := m.Predict([]float64{q})
		want := 2*q + 1
		if math.Abs(got-want) > 0.1 {
			t.Fatalf("Predict(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestFitsNonlinearFunctionWithRBF(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 120
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := rng.Float64()*4 - 2
		X[i] = []float64{x}
		y[i] = math.Sin(2*x) + 0.5*x
	}
	m := New(10, 1.0, 0.01)
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// R² on the training domain must be high for a nonlinear fit.
	yhat := make([]float64, n)
	for i := range X {
		yhat[i] = m.Predict(X[i])
	}
	if r2 := metrics.R2(y, yhat); r2 < 0.95 {
		t.Fatalf("RBF SVR train R² = %v, want > 0.95", r2)
	}
}

func TestEpsilonInsensitivity(t *testing.T) {
	// With a huge ε the tube swallows the data: β stays zero and the
	// prediction is 0 everywhere (no support vectors).
	X := [][]float64{{0}, {1}, {2}}
	y := []float64{0.1, 0.2, 0.15}
	m := New(1, 1, 10)
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if len(m.SV) != 0 {
		t.Fatalf("sv = %d, want 0 with giant epsilon", len(m.SV))
	}
	if got := m.Predict([]float64{1}); got != 0 {
		t.Fatalf("Predict = %v, want 0", got)
	}
}

func TestBoxConstraintLimitsCoefficients(t *testing.T) {
	// One extreme outlier: with a small C its influence is bounded.
	X := [][]float64{{0}, {0.5}, {1}, {1.5}, {2}, {1}}
	y := []float64{0, 0.5, 1, 1.5, 2, 100}
	small := New(0.5, 1, 0.01)
	if err := small.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// The outlier row would need |β| ≈ 50 to fit; C=0.5 forbids it, so
	// prediction at x=1 stays near the inlier trend.
	if got := small.Predict([]float64{1}); got > 10 {
		t.Fatalf("Predict = %v; box constraint failed to cap outlier", got)
	}
}

func TestValidation(t *testing.T) {
	X := [][]float64{{1}, {2}}
	y := []float64{1, 2}
	if err := (&Regressor{Kernel: RBF, C: 0, Gamma: 1}).Fit(X, y); err == nil {
		t.Fatal("C=0 must fail")
	}
	if err := (&Regressor{Kernel: RBF, C: 1, Gamma: 0}).Fit(X, y); err == nil {
		t.Fatal("gamma=0 RBF must fail")
	}
	if err := (&Regressor{Kernel: 2, C: 1, Gamma: 1}).Fit(X, y); err == nil {
		t.Fatal("a kernel that is not implemented must fail")
	}
	if err := (&Regressor{Kernel: RBF, C: 1, Gamma: 1, Epsilon: -1}).Fit(X, y); err == nil {
		t.Fatal("negative epsilon must fail")
	}
	if err := New(1, 1, 0).Fit(nil, nil); err == nil {
		t.Fatal("empty data must fail")
	}
	m := New(1, 1, 0.1)
	if got := m.Predict([]float64{1}); got != 0 {
		t.Fatalf("unfitted Predict = %v, want 0", got)
	}
}

func TestDeterministicFit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 50
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		y[i] = X[i][0] - X[i][1]
	}
	a, b := New(3.5, 0.055, 0.025), New(3.5, 0.055, 0.025)
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	q := []float64{0.3, -0.2}
	if a.Predict(q) != b.Predict(q) {
		t.Fatal("SVR training must be deterministic")
	}
}
