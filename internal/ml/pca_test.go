package ml

import (
	"math"
	"math/rand"
	"testing"
)

// anisotropicData generates points stretched along a known direction.
func anisotropicData(rng *rand.Rand, n int) [][]float64 {
	// Main axis (1,1)/√2 with σ=5, secondary (1,-1)/√2 with σ=0.5.
	out := make([][]float64, n)
	s := 1 / math.Sqrt2
	for i := range out {
		a := rng.NormFloat64() * 5
		b := rng.NormFloat64() * 0.5
		out[i] = []float64{a*s + b*s + 10, a*s - b*s - 3}
	}
	return out
}

func TestPCARecoversPrincipalAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X := anisotropicData(rng, 500)
	p := NewPCA(2)
	if err := p.Fit(X); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// The projection onto component 0 must have much larger spread: the
	// first axis carries > 95 % of the variance.
	proj := p.Transform(X)
	var v0, v1 float64
	for _, r := range proj {
		v0 += r[0] * r[0]
		v1 += r[1] * r[1]
	}
	if v0 < 50*v1 {
		t.Fatalf("projected variances %v vs %v — axis not recovered", v0, v1)
	}
}

func TestPCAReducesDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X := anisotropicData(rng, 100)
	p := NewPCA(1)
	if err := p.Fit(X); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	out := p.Transform(X)
	if len(out[0]) != 1 {
		t.Fatalf("kept %d dims, want 1", len(out[0]))
	}
	// Centering: projections of the mean point are 0.
	mean := []float64{0, 0}
	for _, r := range X {
		mean[0] += r[0]
		mean[1] += r[1]
	}
	mean[0] /= float64(len(X))
	mean[1] /= float64(len(X))
	pm := p.TransformRow(mean)
	if math.Abs(pm[0]) > 1e-9 {
		t.Fatalf("mean must project to origin, got %v", pm[0])
	}
}

func TestPCAKeepAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X := anisotropicData(rng, 50)
	p := NewPCA(0)
	if err := p.Fit(X); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if got := len(p.Transform(X)[0]); got != 2 {
		t.Fatalf("components kept = %d, want 2", got)
	}
}

func TestPCAInPipeline(t *testing.T) {
	// PCA satisfies the Scaler contract, so it can front a pipeline.
	rng := rand.New(rand.NewSource(4))
	X := anisotropicData(rng, 120)
	y := make([]float64, len(X))
	for i, r := range X {
		y[i] = r[0] + r[1]
	}
	fm := &fakeModel{}
	pipe := &Pipeline{Scaler: NewPCA(1), Model: fm}
	if err := pipe.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if len(fm.sawX[0]) != 1 {
		t.Fatalf("model saw %d dims, want 1", len(fm.sawX[0]))
	}
	_ = pipe.Predict(X[0])
}

func TestPCAValidation(t *testing.T) {
	p := NewPCA(1)
	if err := p.Fit(nil); err == nil {
		t.Fatal("empty must fail")
	}
	if err := p.Fit([][]float64{{1, 2}}); err == nil {
		t.Fatal("single sample must fail")
	}
	if err := p.Fit([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged must fail")
	}
	bad := NewPCA(5)
	if err := bad.Fit([][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Fatal("components > dims must fail")
	}
}
