package mlp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml/metrics"
)

func TestFitsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		y[i] = 3*X[i][0] - 2*X[i][1] + 0.5
	}
	m := New([]int{16}, 7)
	m.Epochs = 200
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	yhat := make([]float64, n)
	for i := range X {
		yhat[i] = m.Predict(X[i])
	}
	if r2 := metrics.R2(y, yhat); r2 < 0.98 {
		t.Fatalf("MLP linear R² = %v, want > 0.98", r2)
	}
}

func TestFitsNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := rng.Float64()*4 - 2
		X[i] = []float64{x}
		y[i] = math.Sin(2 * x)
	}
	m := New([]int{32, 16}, 3)
	m.Epochs = 400
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	yhat := make([]float64, n)
	for i := range X {
		yhat[i] = m.Predict(X[i])
	}
	if r2 := metrics.R2(y, yhat); r2 < 0.9 {
		t.Fatalf("MLP sin R² = %v, want > 0.9", r2)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 50
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()}
		y[i] = X[i][0]
	}
	a, b := New([]int{8}, 5), New([]int{8}, 5)
	a.Epochs, b.Epochs = 50, 50
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if a.Predict([]float64{0.5}) != b.Predict([]float64{0.5}) {
		t.Fatal("same seed must give identical networks")
	}
}

func TestValidation(t *testing.T) {
	if err := New(nil, 1).Fit(nil, nil); err == nil {
		t.Fatal("empty data must fail")
	}
	m := New([]int{0}, 1)
	if err := m.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("zero-width hidden layer must fail")
	}
	tanh := New([]int{4}, 1)
	tanh.Act = 2
	if err := tanh.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("an activation that is not implemented must fail")
	}
	fresh := New([]int{4}, 1)
	if got := fresh.Predict([]float64{1}); got != 0 {
		t.Fatalf("unfitted Predict = %v", got)
	}
}

func TestDefaults(t *testing.T) {
	m := &Regressor{}
	if err := m.Fit([][]float64{{1}, {2}, {3}, {4}}, []float64{1, 2, 3, 4}); err != nil {
		t.Fatalf("Fit with defaults: %v", err)
	}
	if len(m.Hidden) != 2 || m.Epochs != 300 || m.BatchSize != 32 {
		t.Fatalf("defaults not applied: %+v", m)
	}
}

// Predict allocates one buffer per call (both halves of the layer ping-pong),
// which is also what keeps concurrent Predicts from sharing state.
func TestPredictAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X := make([][]float64, 40)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = X[i][0] - X[i][2]
	}
	m := New([]int{9, 17, 4}, 1)
	m.Epochs = 3
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { m.Predict(X[0]) }); n > 1 {
		t.Errorf("Predict allocates %v times per call, want <= 1", n)
	}
}
