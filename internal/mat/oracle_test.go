package mat

import "math"

// The operations below left the package with their last production caller;
// the tests keep them, in their plainest form, as oracles for what stayed:
// A = QR, Qᵀ Q = I, Aᵀ(b − Ax) = 0, A v = λ v.

// fromRows builds a matrix from equally sized rows.
func fromRows(rows [][]float64) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.RawRow(i), r)
	}
	return m
}

// col returns a copy of column j.
func col(m *Matrix, j int) []float64 {
	out := make([]float64, m.Rows())
	for i := range out {
		out[i] = m.At(i, j)
	}
	return out
}

func transpose(m *Matrix) *Matrix {
	t := New(m.Cols(), m.Rows())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// mul returns a*b.
func mul(a, b *Matrix) *Matrix {
	out := New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			out.Set(i, j, Dot(a.RawRow(i), col(b, j)))
		}
	}
	return out
}

// mulVec returns a*x for a column vector x.
func mulVec(a *Matrix, x []float64) []float64 {
	out := make([]float64, a.Rows())
	for i := range out {
		out[i] = Dot(a.RawRow(i), x)
	}
	return out
}

// maxAbsDiff is the largest element-wise difference of two equally shaped
// matrices.
func maxAbsDiff(a, b *Matrix) float64 {
	var d float64
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			d = max(d, math.Abs(a.At(i, j)-b.At(i, j)))
		}
	}
	return d
}

// r unpacks the n×n upper-triangular factor.
func (f *QR) r() *Matrix {
	n := f.cols
	r := New(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, -f.tau[i])
		for j := i + 1; j < n; j++ {
			r.Set(i, j, f.qr.At(i, j))
		}
	}
	return r
}

// q accumulates the thin m×n orthonormal factor from the reflectors.
func (f *QR) q() *Matrix {
	m, n := f.rows, f.cols
	q := New(m, n)
	for k := n - 1; k >= 0; k-- {
		q.Set(k, k, 1)
		if f.qr.At(k, k) == 0 {
			continue
		}
		for j := k; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += f.qr.At(i, k) * q.At(i, j)
			}
			s = -s / f.qr.At(k, k)
			for i := k; i < m; i++ {
				q.Set(i, j, q.At(i, j)+s*f.qr.At(i, k))
			}
		}
	}
	return q
}
