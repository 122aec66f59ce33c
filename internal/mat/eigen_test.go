package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymEigenDiagonal(t *testing.T) {
	a := fromRows([][]float64{
		{3, 0, 0},
		{0, 1, 0},
		{0, 0, 2},
	})
	vals, vecs, err := SymEigen(a)
	if err != nil {
		t.Fatalf("SymEigen: %v", err)
	}
	want := []float64{3, 2, 1}
	for i := range want {
		if !almostEqual(vals[i], want[i], 1e-10) {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	// Eigenvectors of a diagonal matrix are unit vectors.
	for c := 0; c < 3; c++ {
		var norm float64
		for r := 0; r < 3; r++ {
			norm += vecs.At(r, c) * vecs.At(r, c)
		}
		if !almostEqual(norm, 1, 1e-10) {
			t.Fatalf("eigenvector %d not unit: %v", c, norm)
		}
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, _, err := SymEigen(New(2, 3)); err == nil {
		t.Fatal("non-square must fail")
	}
}

// Property: A v_i = λ_i v_i and V is orthonormal, for random symmetric A.
func TestSymEigenDecomposition(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := SymEigen(a)
		if err != nil {
			return false
		}
		// Descending eigenvalues.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-9 {
				return false
			}
		}
		// A v = λ v per column.
		for c := 0; c < n; c++ {
			v := col(vecs, c)
			av := mulVec(a, v)
			for r := 0; r < n; r++ {
				if math.Abs(av[r]-vals[c]*v[r]) > 1e-7 {
					return false
				}
			}
		}
		// Orthonormality.
		for c1 := 0; c1 < n; c1++ {
			for c2 := c1; c2 < n; c2++ {
				d := Dot(col(vecs, c1), col(vecs, c2))
				want := 0.0
				if c1 == c2 {
					want = 1
				}
				if math.Abs(d-want) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: trace(A) equals the eigenvalue sum (invariant check).
func TestSymEigenTrace(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := New(n, n)
		var trace float64
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
			trace += a.At(i, i)
		}
		vals, _, err := SymEigen(a)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		return math.Abs(sum-trace) < 1e-8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
