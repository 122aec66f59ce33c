package svr

import (
	"fmt"
	"math"

	"repro/internal/ml"
)

// Kernel identifies the kernel function.
type Kernel int

// Supported kernels.
const (
	RBF Kernel = iota + 1 // exp(-γ‖a−b‖²), the paper's choice
	Linear
	Poly // (γ a·b + coef0)^degree
)

// String names the kernel.
func (k Kernel) String() string {
	switch k {
	case RBF:
		return "rbf"
	case Linear:
		return "linear"
	case Poly:
		return "poly"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Regressor is the ε-SVR model. Configure before Fit (use New for the
// paper's RBF setup).
type Regressor struct {
	Kernel  Kernel
	C       float64 // box constraint (paper: 3.5)
	Epsilon float64 // ε-tube half-width (paper: 0.025)
	Gamma   float64 // RBF/poly scale (paper: 0.055)
	Coef0   float64 // poly offset
	Degree  int     // poly degree
	// MaxIter bounds coordinate-descent epochs (default 1000).
	MaxIter int
	// Tol is the convergence threshold on the largest coefficient change
	// in one epoch (default 1e-4).
	Tol float64

	sv     [][]float64 // support vectors (training rows with β ≠ 0)
	beta   []float64   // dual coefficients of the support vectors
	fitted bool
}

// New returns an RBF ε-SVR with the given hyperparameters.
func New(c, gamma, epsilon float64) *Regressor {
	return &Regressor{Kernel: RBF, C: c, Gamma: gamma, Epsilon: epsilon}
}

func (r *Regressor) kernel(a, b []float64) float64 {
	switch r.Kernel {
	case Linear:
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	case Poly:
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return math.Pow(r.Gamma*s+r.Coef0, float64(r.Degree))
	default: // RBF
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Exp(-r.Gamma * s)
	}
}

func soft(z, eps float64) float64 {
	switch {
	case z > eps:
		return z - eps
	case z < -eps:
		return z + eps
	default:
		return 0
	}
}

// Fit trains the dual problem to convergence.
func (r *Regressor) Fit(X [][]float64, y []float64) error {
	if err := ml.CheckXY(X, y); err != nil {
		return err
	}
	if r.C <= 0 {
		return fmt.Errorf("ml/svr: C=%v must be > 0", r.C)
	}
	if r.Epsilon < 0 {
		return fmt.Errorf("ml/svr: epsilon=%v must be >= 0", r.Epsilon)
	}
	if r.Kernel == RBF && r.Gamma <= 0 {
		return fmt.Errorf("ml/svr: gamma=%v must be > 0 for RBF", r.Gamma)
	}
	maxIter := r.MaxIter
	if maxIter <= 0 {
		maxIter = 1000
	}
	tol := r.Tol
	if tol <= 0 {
		tol = 1e-4
	}

	n := len(X)
	// Augmented kernel matrix K' = K + 1 (regularized bias).
	k := make([]float64, n*n)
	for i := 0; i < n; i++ {
		k[i*n+i] = r.kernel(X[i], X[i]) + 1
		for j := i + 1; j < n; j++ {
			v := r.kernel(X[i], X[j]) + 1
			k[i*n+j] = v
			k[j*n+i] = v
		}
	}
	beta := make([]float64, n)
	f := make([]float64, n) // f = K'β, maintained incrementally
	for epoch := 0; epoch < maxIter; epoch++ {
		var maxDelta float64
		for i := 0; i < n; i++ {
			kii := k[i*n+i]
			si := f[i] - kii*beta[i] // Σ_{j≠i} βⱼK'ᵢⱼ
			next := soft(y[i]-si, r.Epsilon) / kii
			if next > r.C {
				next = r.C
			} else if next < -r.C {
				next = -r.C
			}
			delta := next - beta[i]
			if delta == 0 {
				continue
			}
			beta[i] = next
			row := k[i*n : (i+1)*n]
			for j := range f {
				f[j] += delta * row[j]
			}
			if d := math.Abs(delta); d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < tol {
			break
		}
	}

	// Keep only support vectors.
	r.sv = r.sv[:0]
	r.beta = r.beta[:0]
	for i, b := range beta {
		if b != 0 {
			r.sv = append(r.sv, append([]float64(nil), X[i]...))
			r.beta = append(r.beta, b)
		}
	}
	r.fitted = true
	return nil
}

// Predict evaluates f(x) = Σ βᵢ (K(xᵢ,x) + 1).
func (r *Regressor) Predict(x []float64) float64 {
	if !r.fitted {
		return 0
	}
	var s float64
	for i, sv := range r.sv {
		s += r.beta[i] * (r.kernel(sv, x) + 1)
	}
	return s
}

var _ ml.Regressor = (*Regressor)(nil)
