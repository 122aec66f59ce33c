package ml

import (
	"fmt"

	"repro/internal/mat"
)

// PCA is principal component analysis — the dimensionality reduction the
// paper's future work calls for to "avoid the curse of dimensionality"
// (Section V). Fit learns the component basis from training data;
// Transform projects rows onto the leading components.
type PCA struct {
	// Components is the number of dimensions to keep; 0 keeps all.
	Components int

	mean     []float64
	basis    *mat.Matrix // columns = principal axes (feature-space)
	variance []float64   // eigenvalues (descending)
	fitted   bool
}

// NewPCA returns a PCA keeping k components.
func NewPCA(k int) *PCA { return &PCA{Components: k} }

// Fit computes the covariance eigendecomposition of X.
func (p *PCA) Fit(X [][]float64) error {
	if len(X) < 2 || len(X[0]) == 0 {
		return fmt.Errorf("%w: PCA needs at least 2 samples", ErrBadData)
	}
	d := len(X[0])
	if p.Components < 0 || p.Components > d {
		return fmt.Errorf("%w: PCA components %d out of [0,%d]", ErrBadData, p.Components, d)
	}
	p.mean = make([]float64, d)
	for _, row := range X {
		if len(row) != d {
			return fmt.Errorf("%w: ragged matrix", ErrBadData)
		}
		for j, v := range row {
			p.mean[j] += v
		}
	}
	n := float64(len(X))
	for j := range p.mean {
		p.mean[j] /= n
	}
	cov := mat.New(d, d)
	for _, row := range X {
		for i := 0; i < d; i++ {
			di := row[i] - p.mean[i]
			for j := i; j < d; j++ {
				cov.Set(i, j, cov.At(i, j)+di*(row[j]-p.mean[j]))
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			v := cov.At(i, j) / (n - 1)
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	values, vectors, err := mat.SymEigen(cov)
	if err != nil {
		return fmt.Errorf("ml: PCA: %w", err)
	}
	p.variance = values
	p.basis = vectors
	p.fitted = true
	return nil
}

func (p *PCA) keep() int {
	if p.Components == 0 {
		return len(p.variance)
	}
	return p.Components
}

// TransformRow projects one row onto the leading components.
func (p *PCA) TransformRow(x []float64) []float64 {
	k := p.keep()
	out := make([]float64, k)
	for c := 0; c < k; c++ {
		var s float64
		for j := range x {
			s += (x[j] - p.mean[j]) * p.basis.At(j, c)
		}
		out[c] = s
	}
	return out
}

// Transform projects every row.
func (p *PCA) Transform(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = p.TransformRow(row)
	}
	return out
}

var _ Scaler = (*PCA)(nil)
