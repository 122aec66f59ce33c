package svr

import (
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/ml"
)

// Kernel is what a payload says about the kernel function. One is
// implemented, the paper's; a payload naming another is refused.
type Kernel int

// RBF is exp(-γ‖a−b‖²).
const RBF Kernel = 1

// Regressor is the RBF ε-SVR model. Configure before Fit (use New). The
// fields are also the model's gob payload; SV and Beta are the fitted
// support-vector expansion.
type Regressor struct {
	Kernel  Kernel
	C       float64 // box constraint (paper: 3.5)
	Epsilon float64 // ε-tube half-width (paper: 0.025)
	Gamma   float64 // RBF scale (paper: 0.055)
	// MaxIter bounds coordinate-descent epochs (default 1000).
	MaxIter int
	// Tol is the convergence threshold on the largest coefficient change
	// in one epoch (default 1e-4).
	Tol float64

	SV     [][]float64 // support vectors (training rows with β ≠ 0)
	Beta   []float64   // dual coefficients of the support vectors
	Fitted bool
}

// New returns an RBF ε-SVR with the given hyperparameters.
func New(c, gamma, epsilon float64) *Regressor {
	return &Regressor{Kernel: RBF, C: c, Gamma: gamma, Epsilon: epsilon}
}

// check is what Fit asks of a configured model and GobDecode of a decoded
// one, before Predict indexes it: the implemented kernel (the zero value
// means it too) and equally wide support vectors with a coefficient each.
func (r *Regressor) check() error {
	if r.Kernel != 0 && r.Kernel != RBF {
		return fmt.Errorf("ml/svr: kernel %d: only RBF (%d) is implemented", r.Kernel, RBF)
	}
	if len(r.SV)+len(r.Beta) == 0 {
		return nil // unfitted, or every target inside the ε-tube
	}
	return ml.CheckXY(r.SV, r.Beta)
}

func (r *Regressor) kernel(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Exp(-r.Gamma * s)
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
	if err := r.check(); err != nil {
		return err
	}
	if r.C <= 0 {
		return fmt.Errorf("ml/svr: C=%v must be > 0", r.C)
	}
	if r.Epsilon < 0 {
		return fmt.Errorf("ml/svr: epsilon=%v must be >= 0", r.Epsilon)
	}
	if r.Gamma <= 0 {
		return fmt.Errorf("ml/svr: gamma=%v must be > 0", r.Gamma)
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
	r.SV = r.SV[:0]
	r.Beta = r.Beta[:0]
	for i, b := range beta {
		if b != 0 {
			r.SV = append(r.SV, append([]float64(nil), X[i]...))
			r.Beta = append(r.Beta, b)
		}
	}
	r.Fitted = true
	return nil
}

// Predict evaluates f(x) = Σ βᵢ (K(xᵢ,x) + 1).
func (r *Regressor) Predict(x []float64) float64 {
	if !r.Fitted {
		return 0
	}
	var s float64
	for i, sv := range r.SV {
		s += r.Beta[i] * (r.kernel(sv, x) + 1)
	}
	return s
}

var _ ml.Regressor = (*Regressor)(nil)

func init() { gob.RegisterName("ffr/svr.Regressor", &Regressor{}) }

// wire is Regressor without its methods: what gob sees of one.
type wire Regressor

// GobEncode exports the hyperparameters and the support-vector expansion.
func (r *Regressor) GobEncode() ([]byte, error) { return ml.GobState((*wire)(r)) }

// GobDecode restores an SVR.
func (r *Regressor) GobDecode(data []byte) error { return ml.UngobState(data, (*wire)(r), r.check) }
