package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization of an m×n matrix A (m ≥ n):
// A = Q*R with Q orthogonal (m×m, stored implicitly) and R upper triangular.
type QR struct {
	qr   *Matrix   // packed factors: R in the upper triangle, reflectors below
	tau  []float64 // Householder scalars
	rows int
	cols int
}

// Factorize computes the Householder QR factorization of a.
// a is not modified. It returns an error if a has fewer rows than columns.
func Factorize(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("%w: QR needs rows >= cols, got %dx%d", ErrShape, m, n)
	}
	qr := New(m, n)
	copy(qr.data, a.data)
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Compute the norm of the k-th column below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm == 0 {
			tau[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		tau[k] = norm

		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
	}
	return &QR{qr: qr, tau: tau, rows: m, cols: n}, nil
}

// Solve computes the least-squares solution x minimizing ||A*x - b||₂ using
// the factorization. It returns ErrSingular when R has a (near-)zero diagonal
// element, meaning A is rank deficient.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.rows, f.cols
	if len(b) != m {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), m)
	}
	// y = Qᵀ b, computed by applying the reflectors in order.
	y := make([]float64, m)
	copy(y, b)
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back substitution on R x = y[:n]. Diagonal of R is -tau.
	x := make([]float64, n)
	const eps = 1e-12
	for i := n - 1; i >= 0; i-- {
		d := -f.tau[i]
		if math.Abs(d) < eps {
			return nil, fmt.Errorf("%w: R[%d,%d]=%g", ErrSingular, i, i, d)
		}
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / d
	}
	return x, nil
}

// LeastSquares solves min ||A*x − b||₂ via QR.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// RidgeSolve solves the Tikhonov-regularized least squares problem
// min ||A*x − b||₂² + lambda*||x||₂² by augmenting A with sqrt(lambda)*I.
// lambda must be non-negative; lambda == 0 reduces to LeastSquares.
func RidgeSolve(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("mat: ridge lambda must be >= 0, got %g", lambda)
	}
	if lambda == 0 {
		return LeastSquares(a, b)
	}
	m, n := a.Rows(), a.Cols()
	aug := New(m+n, n)
	for i := 0; i < m; i++ {
		copy(aug.RawRow(i), a.RawRow(i))
	}
	sl := math.Sqrt(lambda)
	for j := 0; j < n; j++ {
		aug.Set(m+j, j, sl)
	}
	rhs := make([]float64, m+n)
	copy(rhs, b)
	return LeastSquares(aug, rhs)
}
