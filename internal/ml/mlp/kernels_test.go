package mlp

import (
	"math"
	"math/rand"
	"testing"
)

// kernelValues fills a slice of length n from rng: mostly small normals,
// with exact zeros, −0 and, when special is set, NaN and ±Inf.
func kernelValues(rng *rand.Rand, n int, special bool) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch r := rng.Intn(16); {
		case r < 3:
			x[i] = 0
		case r == 3:
			x[i] = math.Copysign(0, -1)
		case r == 4 && special:
			x[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		default:
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// sameSlice fails t unless got and want agree element by element (same).
func sameSlice(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !same(got[i], want[i]) {
			t.Fatalf("%s[%d] = %x, Go kernels give %x", what, i, got[i], want[i])
		}
	}
}

// TestKernelSetsMatchGoKernels runs every kernel set this machine can run
// against the Go loops on every width from 0 to 70, so that the assembly's
// blocks of 32, 16 and 4 and its one-element tails all meet data: zeros, −0,
// NaN and ±Inf, and the zero skips where their preconditions hold.
func TestKernelSetsMatchGoKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range platformKernels {
		t.Run(k.name, func(t *testing.T) {
			for cols := 0; cols <= 70; cols++ {
				rows := 1 + rng.Intn(40)
				// forward: cols neurons over rows inputs, as Fit lays the
				// weights out once a batch.
				w, b := kernelValues(rng, cols*rows, true), kernelValues(rng, cols, true)
				x := kernelValues(rng, rows, true)
				dst, want := make([]float64, cols), make([]float64, cols)
				affine(want, w, b, x)
				k.forward(dst, k.weights(make([]float64, len(w)), w, cols, rows), b, x)
				sameSlice(t, "forward", dst, want)

				for _, skip := range []bool{false, true} {
					// backprop: with skipZero, a is finite and dst starts at +0.
					a := kernelValues(rng, rows*cols, !skip)
					x := kernelValues(rng, rows, true)
					dst := kernelValues(rng, cols, true)
					if skip {
						clear(dst)
					}
					want := append([]float64(nil), dst...)
					backpropGo(want, a, x, skip)
					k.backprop(dst, a, x, skip)
					sameSlice(t, "backprop", dst, want)

					// outer: with skipZero, x is finite and g starts at +0.
					d := kernelValues(rng, rows, true)
					x = kernelValues(rng, cols, !skip)
					g := kernelValues(rng, rows*cols, true)
					if skip {
						clear(g)
					}
					want = append([]float64(nil), g...)
					outerGo(want, d, x, skip)
					k.outer(g, d, x, skip)
					sameSlice(t, "outer", g, want)
				}

				s := adamStep{bs: 7, l2: 1e-3, beta1: 0.9, omb1: 1 - 0.9, beta2: 0.999, omb2: 1 - 0.999,
					lr: 1e-3, corr1: 1 - math.Pow(0.9, 3), corr2: 1 - math.Pow(0.999, 3), eps: 1e-8}
				w, g := kernelValues(rng, cols, true), kernelValues(rng, cols, true)
				m1, v1 := kernelValues(rng, cols, true), kernelValues(rng, cols, false)
				for i := range v1 {
					v1[i] = math.Abs(v1[i])
				}
				ww, wm, wv := append([]float64(nil), w...), append([]float64(nil), m1...), append([]float64(nil), v1...)
				adamGo(ww, g, wm, wv, &s)
				k.adam(w, g, m1, v1, &s)
				sameSlice(t, "adam w", w, ww)
				sameSlice(t, "adam m1", m1, wm)
				sameSlice(t, "adam v1", v1, wv)
			}
		})
	}
}
