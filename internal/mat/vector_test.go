package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
	// Values that would overflow a naive sum of squares.
	big := []float64{1e200, 1e200}
	if got := Norm2(big); math.IsInf(got, 0) {
		t.Fatal("Norm2 overflowed")
	}
}

func TestAXPY(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("AXPY = %v, want [7 9]", y)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	AXPY(1, []float64{1}, []float64{1, 2})
}

func TestMeanVarianceStdDev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Variance(x); got != 4 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice statistics must be 0")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = %v,%v want -1,7", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Fatal("MinMax(nil) must be 0,0")
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(x, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("Quantile(nil) must be 0")
	}
	// Interpolated quantile.
	if got := Quantile([]float64{0, 10}, 0.75); !almostEqual(got, 7.5, 1e-12) {
		t.Fatalf("Quantile interp = %v, want 7.5", got)
	}
}

// Property: Quantile does not modify its input and is monotone in q.
func TestQuantileProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		orig := append([]float64(nil), x...)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(x, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		for i := range x {
			if x[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is invariant under shifts and scales quadratically.
func TestVarianceProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		v := Variance(x)
		shifted := make([]float64, n)
		scaled := make([]float64, n)
		for i := range x {
			shifted[i] = x[i] + 13.5
			scaled[i] = 3 * x[i]
		}
		if !almostEqual(Variance(shifted), v, 1e-9*(1+v)) {
			return false
		}
		return almostEqual(Variance(scaled), 9*v, 1e-9*(1+9*v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile(x, k/(n-1)) of sorted data hits the k-th order statistic.
func TestQuantileOrderStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 11
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	for k := 0; k < n; k++ {
		q := float64(k) / float64(n-1)
		if got := Quantile(x, q); !almostEqual(got, s[k], 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, s[k])
		}
	}
}
