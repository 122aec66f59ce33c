package mlp

// The AVX kernels run the Go loops' arithmetic four float64 lanes at a time:
// VMULPD, VADDPD, VSUBPD, VDIVPD and VSQRTPD round each lane as MULSD,
// ADDSD, SUBSD, DIVSD and SQRTSD do, there is no fused multiply-add, and each
// lane adds its element's terms in the Go loops' order. Each wrapper
// reslices its operands to the lengths the assembly touches, so a bad call
// panics here instead of reading past a slice.

// hasAVX reports whether the CPU has AVX and the operating system saves the
// YMM registers (CPUID.1:ECX.OSXSAVE and .AVX, XCR0 bits 1 and 2).
func hasAVX() bool

// gemvAVX is backprop's loop; with dst set to the biases first, it is also
// the forward pass over a transposed weight matrix.
//
//go:noescape
func gemvAVX(dst, a, x []float64, skipZero bool)

//go:noescape
func outerAVX(g, d, x []float64, skipZero bool)

// adamAVX steps len(w) weights, a multiple of 4.
//
//go:noescape
func adamAVX(w, g, m1, v1 []float64, s *adamStep)

// avxKernels run the forward pass over each hidden weight matrix
// transposed, so that four neurons' weights for one input sit side by side.
var avxKernels = kernels{
	name: "avx",
	weights: func(t, w []float64, rows, cols int) []float64 {
		transpose(t, w, rows, cols)
		return t
	},
	forward: func(dst, wt, b, x []float64) {
		copy(dst, b[:len(dst)])
		gemvAVX(dst, wt[:len(x)*len(dst)], x, false)
	},
	backprop: func(dst, a, x []float64, skipZero bool) {
		gemvAVX(dst, a[:len(x)*len(dst)], x, skipZero)
	},
	outer: func(g, d, x []float64, skipZero bool) {
		outerAVX(g[:len(d)*len(x)], d, x, skipZero)
	},
	adam: func(w, g, m1, v1 []float64, s *adamStep) {
		n, all := len(w)&^3, len(w)
		adamAVX(w[:n], g[:n], m1[:n], v1[:n], s)
		adamGo(w[n:], g[n:all], m1[n:all], v1[n:all], s)
	},
}

// transpose writes the row-major rows × cols matrix w into t as cols × rows.
func transpose(t, w []float64, rows, cols int) {
	t = t[:rows*cols]
	for j := 0; j < rows; j++ {
		for i, v := range w[j*cols : (j+1)*cols] {
			t[i*rows+j] = v
		}
	}
}

// platformKernels lists the kernel sets this machine can run, the one Fit
// uses first. The AVX kernels are on it only where the CPU has AVX.
var platformKernels = func() []kernels {
	if hasAVX() {
		return []kernels{avxKernels, goKernels}
	}
	return []kernels{goKernels}
}()
