package mat

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("zero value At(0,0) = %v, want 0", got)
	}
}

func TestRawRowAliasesStorage(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	m.RawRow(1)[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatal("RawRow must alias storage")
	}
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 4, 4)
	id := Identity(4)
	if d := maxAbsDiff(mul(id, a), a); d != 0 {
		t.Fatal("I*A != A")
	}
	if d := maxAbsDiff(mul(a, id), a); d != 0 {
		t.Fatal("A*I != A")
	}
}
