package mlp

import "math"

// kernels are Fit's hot loops. Each platform runs one set (kernels_amd64.go,
// kernels_other.go), chosen once at package init; every set adds the terms
// of each output element in the order the scalar loops add them, so all of
// them train a network to the same bits (docs/ARCHITECTURE.md, "ML numerics").
type kernels struct {
	name string
	// weights returns hidden layer weights w, row-major rows × cols, in the
	// layout forward reads, copied into t if that layout is another. Fit
	// calls it once a batch, after the Adam step has changed w.
	weights func(t, w []float64, rows, cols int) []float64
	// forward sets dst[j] = b[j] + Σ_i w[j][i]·x[i], adding the terms in
	// ascending i, for w as weights laid it out.
	forward func(dst, w, b, x []float64)
	// backprop adds x[i]·a[i·len(dst)+j] to dst[j] for ascending i: dst +=
	// xᵀa for a row-major len(x) × len(dst) matrix a, back-propagation's
	// Σ_k delta[l+1][k]·W[l+1][k][·]. With skipZero it leaves out the terms
	// of a zero x[i]; the caller vouches that a is finite and that dst
	// starts at +0.
	backprop func(dst, a, x []float64, skipZero bool)
	// outer adds d[j]·x to row j of the row-major len(d) × len(x) matrix g:
	// the gradient of one sample. With skipZero it leaves out the rows of a
	// zero d[j]; the caller vouches that x is finite and that g started the
	// batch at +0.
	outer func(g, d, x []float64, skipZero bool)
	// adam takes one Adam step on the weights w, from the batch's gradient
	// sums g and the moments m1 and v1.
	adam func(w, g, m1, v1 []float64, s *adamStep)
}

// adamStep holds the scalars of one Adam step, in the order the assembly
// reads them. The moment coefficients are stored as Go rounds the constant
// expressions (1−beta1 is float64(0.1), not 1 − float64(0.9)), so that every
// kernel set multiplies by the same values.
type adamStep struct {
	bs, l2, beta1, omb1, beta2, omb2, lr, corr1, corr2, eps float64
}

// goKernels are the loops in Go, which every platform can run. The forward
// pass reads the weights as they are.
var goKernels = kernels{
	name:     "go",
	weights:  func(_, w []float64, _, _ int) []float64 { return w },
	forward:  affine,
	backprop: backpropGo,
	outer:    outerGo,
	adam:     adamGo,
}

func backpropGo(dst, a, x []float64, skipZero bool) {
	n := len(dst)
	a = a[:len(x)*n]
	for i, v := range x {
		if v == 0 && skipZero {
			continue
		}
		axpy(dst, v, a[i*n:(i+1)*n])
	}
}

func outerGo(g, d, x []float64, skipZero bool) {
	n := len(x)
	g = g[:len(d)*n]
	for j, dj := range d {
		if dj == 0 && skipZero {
			continue
		}
		axpy(g[j*n:(j+1)*n], dj, x)
	}
}

func adamGo(w, g, m1, v1 []float64, s *adamStep) {
	g, m1, v1 = g[:len(w)], m1[:len(w)], v1[:len(w)]
	for i := range w {
		gi := g[i]/s.bs + s.l2*w[i]
		m1[i] = s.beta1*m1[i] + s.omb1*gi
		v1[i] = s.beta2*v1[i] + s.omb2*gi*gi
		w[i] -= s.lr * (m1[i] / s.corr1) / (math.Sqrt(v1[i]/s.corr2) + s.eps)
	}
}
