package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, m, n int) *Matrix {
	a := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	return a
}

// Property: A == Q*R for random tall matrices.
func TestQRReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(6)
		a := randomMatrix(rng, m, n)
		qr, err := Factorize(a)
		if err != nil {
			return false
		}
		return maxAbsDiff(mul(qr.q(), qr.r()), a) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Qᵀ*Q == I (thin Q has orthonormal columns).
func TestQROrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := n + rng.Intn(5)
		a := randomMatrix(rng, m, n)
		qr, err := Factorize(a)
		if err != nil {
			return false
		}
		q := qr.q()
		return maxAbsDiff(mul(transpose(q), q), Identity(n)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQRWideMatrixRejected(t *testing.T) {
	if _, err := Factorize(New(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square, well-conditioned system: solution must be exact.
	a := fromRows([][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 4},
	})
	want := []float64{1, -2, 3}
	b := mulVec(a, want)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-10) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

// Property: for overdetermined consistent systems (b = A*x0), the LS solution
// recovers x0.
func TestLeastSquaresConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := n + 1 + rng.Intn(6)
		a := randomMatrix(rng, m, n)
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		b := mulVec(a, x0)
		x, err := LeastSquares(a, b)
		if err != nil {
			// Randomly singular matrices are possible but vanishingly rare
			// for Gaussian entries; treat as failure.
			return false
		}
		for i := range x0 {
			if !almostEqual(x[i], x0[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: LS residual is orthogonal to the column space: Aᵀ(b − Ax) ≈ 0.
func TestLeastSquaresNormalEquations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := n + 2 + rng.Intn(6)
		a := randomMatrix(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return false
		}
		ax := mulVec(a, x)
		res := make([]float64, m)
		for i := range res {
			res[i] = b[i] - ax[i]
		}
		for _, v := range mulVec(transpose(a), res) {
			if math.Abs(v) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresSingular(t *testing.T) {
	// Two identical columns: rank deficient.
	a := fromRows([][]float64{
		{1, 1},
		{2, 2},
		{3, 3},
	})
	_, err := LeastSquares(a, []float64{1, 2, 3})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveRHSLengthMismatch(t *testing.T) {
	a := fromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	qr, err := Factorize(a)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if _, err := qr.Solve([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestRidgeSolveShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 20, 4)
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x0, err := RidgeSolve(a, b, 0)
	if err != nil {
		t.Fatalf("RidgeSolve(0): %v", err)
	}
	x1, err := RidgeSolve(a, b, 10)
	if err != nil {
		t.Fatalf("RidgeSolve(10): %v", err)
	}
	if n0, n1 := Dot(x0, x0), Dot(x1, x1); n1 >= n0 {
		t.Fatalf("ridge must shrink solution: ||x1||²=%v >= ||x0||²=%v", n1, n0)
	}
}

func TestRidgeSolveHandlesRankDeficiency(t *testing.T) {
	a := fromRows([][]float64{
		{1, 1},
		{2, 2},
		{3, 3},
	})
	x, err := RidgeSolve(a, []float64{1, 2, 3}, 1e-3)
	if err != nil {
		t.Fatalf("ridge on singular system should succeed: %v", err)
	}
	if len(x) != 2 {
		t.Fatalf("len(x) = %d, want 2", len(x))
	}
}

func TestRidgeNegativeLambda(t *testing.T) {
	if _, err := RidgeSolve(New(2, 2), []float64{0, 0}, -1); err == nil {
		t.Fatal("expected error for negative lambda")
	}
}

func TestQRZeroColumn(t *testing.T) {
	// A zero column exercises the tau==0 path.
	a := fromRows([][]float64{
		{1, 0},
		{2, 0},
		{3, 0},
	})
	qr, err := Factorize(a)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if d := maxAbsDiff(mul(qr.q(), qr.r()), a); d > 1e-12 {
		t.Fatalf("QR reconstruction with zero column, diff=%v", d)
	}
	if _, err := qr.Solve([]float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("solve with zero column: err = %v, want ErrSingular", err)
	}
}
