package mlp

import (
	"math"
	"math/rand"
	"testing"
)

// refFit is the scalar training loop Fit replaced, kept verbatim as the
// reference: one output neuron at a time, column-walk back-propagation. A
// fitted network's weights are part of its identity (docs/ARCHITECTURE.md,
// "ML numerics"), so Fit must reproduce these loops bit for bit.
func refFit(m *Regressor, X [][]float64, y []float64) {
	m.defaults()
	rng := rand.New(rand.NewSource(m.Seed))
	in := len(X[0])
	m.Dims = append(append([]int{in}, m.Hidden...), 1)
	L := len(m.Dims) - 1
	m.Weights = make([][]float64, L)
	m.Biases = make([][]float64, L)
	for l := 0; l < L; l++ {
		fanIn, fanOut := m.Dims[l], m.Dims[l+1]
		scale := math.Sqrt(2 / float64(fanIn))
		w := make([]float64, fanIn*fanOut)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.Weights[l] = w
		m.Biases[l] = make([]float64, fanOut)
	}

	mw := make([][]float64, L)
	vw := make([][]float64, L)
	mb := make([][]float64, L)
	vb := make([][]float64, L)
	for l := 0; l < L; l++ {
		mw[l] = make([]float64, len(m.Weights[l]))
		vw[l] = make([]float64, len(m.Weights[l]))
		mb[l] = make([]float64, len(m.Biases[l]))
		vb[l] = make([]float64, len(m.Biases[l]))
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8

	n := len(X)
	order := rng.Perm(n)
	pre := make([][]float64, L)
	out := make([][]float64, L+1)
	for l := 0; l < L; l++ {
		pre[l] = make([]float64, m.Dims[l+1])
		out[l+1] = make([]float64, m.Dims[l+1])
	}
	delta := make([][]float64, L)
	for l := 0; l < L; l++ {
		delta[l] = make([]float64, m.Dims[l+1])
	}
	gw := make([][]float64, L)
	gb := make([][]float64, L)
	for l := 0; l < L; l++ {
		gw[l] = make([]float64, len(m.Weights[l]))
		gb[l] = make([]float64, len(m.Biases[l]))
	}

	step := 0
	for epoch := 0; epoch < m.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < n; lo += m.BatchSize {
			hi := lo + m.BatchSize
			if hi > n {
				hi = n
			}
			batch := order[lo:hi]
			for l := 0; l < L; l++ {
				for i := range gw[l] {
					gw[l][i] = 0
				}
				for i := range gb[l] {
					gb[l][i] = 0
				}
			}
			for _, idx := range batch {
				out[0] = X[idx]
				for l := 0; l < L; l++ {
					fanIn := m.Dims[l]
					for j := 0; j < m.Dims[l+1]; j++ {
						s := m.Biases[l][j]
						wrow := m.Weights[l][j*fanIn : (j+1)*fanIn]
						for i2, v := range out[l] {
							s += wrow[i2] * v
						}
						pre[l][j] = s
						if l == L-1 {
							out[l+1][j] = s
						} else {
							out[l+1][j] = refAct(s)
						}
					}
				}
				diff := out[L][0] - y[idx]
				delta[L-1][0] = diff
				for l := L - 2; l >= 0; l-- {
					fanIn := m.Dims[l+1]
					for j := 0; j < m.Dims[l+1]; j++ {
						var s float64
						for k2 := 0; k2 < m.Dims[l+2]; k2++ {
							s += m.Weights[l+1][k2*fanIn+j] * delta[l+1][k2]
						}
						delta[l][j] = s * refActGrad(pre[l][j])
					}
				}
				for l := 0; l < L; l++ {
					fanIn := m.Dims[l]
					for j := 0; j < m.Dims[l+1]; j++ {
						d := delta[l][j]
						grow := gw[l][j*fanIn : (j+1)*fanIn]
						for i2, v := range out[l] {
							grow[i2] += d * v
						}
						gb[l][j] += d
					}
				}
			}
			step++
			bs := float64(len(batch))
			corr1 := 1 - math.Pow(beta1, float64(step))
			corr2 := 1 - math.Pow(beta2, float64(step))
			for l := 0; l < L; l++ {
				for i := range m.Weights[l] {
					g := gw[l][i]/bs + m.L2*m.Weights[l][i]
					mw[l][i] = beta1*mw[l][i] + (1-beta1)*g
					vw[l][i] = beta2*vw[l][i] + (1-beta2)*g*g
					m.Weights[l][i] -= m.LearningRate * (mw[l][i] / corr1) / (math.Sqrt(vw[l][i]/corr2) + eps)
				}
				for i := range m.Biases[l] {
					g := gb[l][i] / bs
					mb[l][i] = beta1*mb[l][i] + (1-beta1)*g
					vb[l][i] = beta2*vb[l][i] + (1-beta2)*g*g
					m.Biases[l][i] -= m.LearningRate * (mb[l][i] / corr1) / (math.Sqrt(vb[l][i]/corr2) + eps)
				}
			}
		}
	}
	m.Fitted = true
}

func refAct(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func refActGrad(pre float64) float64 {
	if pre < 0 {
		return 0
	}
	return 1
}

// refPredict is the forward pass Predict replaced, one buffer per layer.
func refPredict(m *Regressor, x []float64) float64 {
	cur := x
	L := len(m.Dims) - 1
	for l := 0; l < L; l++ {
		fanIn := m.Dims[l]
		next := make([]float64, m.Dims[l+1])
		for j := range next {
			s := m.Biases[l][j]
			wrow := m.Weights[l][j*fanIn : (j+1)*fanIn]
			for i, v := range cur {
				s += wrow[i] * v
			}
			if l == L-1 {
				next[j] = s
			} else {
				next[j] = refAct(s)
			}
		}
		cur = next
	}
	return cur[0]
}

// same reports whether a and b have the same bits or are both NaN. A NaN's
// payload is not compared: which of two NaN operands an amd64 add or multiply
// passes on depends on the operand order the compiler picks, which differs
// between builds of the same loop (the fuzzing build's instrumentation
// changes it).
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameNetwork fails t unless got holds want's weights and biases bit for bit
// and predicts every row of X to the bits of the scalar forward pass.
func sameNetwork(t *testing.T, got, want *Regressor, X [][]float64) {
	t.Helper()
	for l := range want.Weights {
		for i, w := range want.Weights[l] {
			if !same(got.Weights[l][i], w) {
				t.Fatalf("layer %d weight %d: %x, scalar loops give %x", l, i, got.Weights[l][i], w)
			}
		}
		for i, b := range want.Biases[l] {
			if !same(got.Biases[l][i], b) {
				t.Fatalf("layer %d bias %d: %x, scalar loops give %x", l, i, got.Biases[l][i], b)
			}
		}
	}
	for i, x := range X {
		if p, r := got.Predict(x), refPredict(want, x); !same(p, r) {
			t.Fatalf("Predict(row %d) = %x, scalar forward pass gives %x", i, p, r)
		}
	}
}

// initialNetwork returns m as Fit initializes it on rows of the given width,
// before the first step.
func initialNetwork(m Regressor, width int) *Regressor {
	m.defaults()
	rng := rand.New(rand.NewSource(m.Seed))
	m.Dims = append(append([]int{width}, m.Hidden...), 1)
	m.Weights, m.Biases = nil, nil
	for l := 0; l+1 < len(m.Dims); l++ {
		scale := math.Sqrt(2 / float64(m.Dims[l]))
		w := make([]float64, m.Dims[l]*m.Dims[l+1])
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.Weights = append(m.Weights, w)
		m.Biases = append(m.Biases, make([]float64, m.Dims[l+1]))
	}
	m.Fitted = true
	return &m
}

// zeroDeltaTargets returns the outputs of the network m starts from: every
// output delta of the first batch is exactly 0, and without weight decay
// every later one too, because a zero gradient leaves each weight as it is.
func zeroDeltaTargets(m *Regressor, X [][]float64) []float64 {
	init := initialNetwork(*m, len(X[0]))
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = refPredict(init, x)
	}
	return y
}

// TestFitBitIdenticalToScalarLoops trains each case with refFit and with
// every kernel set this machine can run (platformKernels).
func TestFitBitIdenticalToScalarLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, width = 70, 9 // n is not a multiple of the batch size
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, width)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		y[i] = math.Sin(X[i][0]) + 0.5*X[i][1]*X[i][2] + 0.1*rng.NormFloat64()
	}
	// The same rows in raw feature units, as an MLP outside a pipeline sees
	// them: large, off-centre values that leave many ReLUs at zero.
	rawX := make([][]float64, n)
	rawY := make([]float64, n)
	for i, row := range X {
		rawX[i] = make([]float64, width)
		for j, v := range row {
			rawX[i][j] = 250*float64(j) + 1000*v
		}
		rawY[i] = 100 * y[i]
	}
	// Three rows hold +Inf, -Inf and NaN: a zero delta times one of them is
	// NaN, not a zero term, and the NaN reaches every weight.
	badX := make([][]float64, n)
	copy(badX, X)
	for _, bad := range []struct {
		row, col int
		v        float64
	}{{5, 2, math.Inf(1)}, {17, 0, math.Inf(-1)}, {40, 4, math.NaN()}} {
		badX[bad.row] = append([]float64(nil), X[bad.row]...)
		badX[bad.row][bad.col] = bad.v
	}
	// One row drives a one-neuron first layer to −Inf: its ReLU is 0, so the
	// rest of the network stays finite and the neuron's delta is exactly 0,
	// and that 0 times the row's infinite input is a NaN gradient.
	deadX := make([][]float64, n)
	copy(deadX, X)
	w := initialNetwork(*New([]int{1, 4}, 5), width).Weights[0]
	col := 0
	for j := range w {
		if math.Abs(w[j]) > math.Abs(w[col]) {
			col = j
		}
	}
	deadX[5] = append([]float64(nil), X[5]...)
	deadX[5][col] = math.Copysign(math.Inf(1), -w[col])
	cases := []struct {
		name     string
		hidden   []int
		l2       float64
		X        [][]float64
		y        []float64
		zeroStep bool // targets are the initial network's outputs
	}{
		{"relu-7-3", []int{7, 3}, 0, X, y, false},
		{"relu-64-32", []int{64, 32}, 0, X, y, false},
		{"relu-5", []int{5}, 1e-4, X, y, false},
		{"relu-1-9-2", []int{1, 9, 2}, 1e-3, X, y, false},
		{"unscaled-64-32", []int{64, 32}, 0, rawX, rawY, false},
		{"unscaled-7-3", []int{7, 3}, 1e-3, rawX, rawY, false},
		{"nonfinite-7-3", []int{7, 3}, 0, badX, y, false},
		{"nonfinite-5", []int{5}, 1e-4, badX, y, false},
		{"dead-inf-1-4", []int{1, 4}, 0, deadX, y, false},
		{"zero-delta-7-3", []int{7, 3}, 0, X, nil, true},
		{"zero-delta-l2-7-3", []int{7, 3}, 1e-3, X, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Regressor {
				m := New(append([]int(nil), tc.hidden...), 5)
				m.L2, m.Epochs, m.BatchSize = tc.l2, 12, 16
				return m
			}
			want := build()
			ty := tc.y
			if tc.zeroStep {
				ty = zeroDeltaTargets(want, tc.X)
			}
			refFit(want, tc.X, ty)
			for _, k := range platformKernels {
				t.Run(k.name, func(t *testing.T) {
					got := build()
					if err := got.fit(tc.X, ty, k); err != nil {
						t.Fatalf("fit: %v", err)
					}
					sameNetwork(t, got, want, tc.X)
					if tc.zeroStep && tc.l2 == 0 {
						// Every delta was 0, so training left the initial network.
						sameNetwork(t, got, initialNetwork(*build(), width), tc.X)
					}
				})
			}
		})
	}
}

// fuzzValue maps one byte to a feature or target value: a coarse grid, so
// that ReLUs sit at exactly 0 often, and NaN, ±Inf, −0 and a value whose
// square overflows at the top of the range.
func fuzzValue(b byte) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(1)
	case 0xfd:
		return math.Inf(-1)
	case 0xfc:
		return math.Copysign(0, -1)
	case 0xfb:
		return 1e200
	}
	return float64(int(b)-128) / 16
}

// FuzzMLPFitMatchesScalarLoops fits small networks on small datasets with
// refFit, the scalar loops kept verbatim, and with every kernel set this
// machine can run, and compares every weight and bias bit for bit. Rows and targets are drawn from the fuzzed bytes (then
// from seed once those run out) and may hold NaN, ±Inf, −0 and huge values.
// cfg packs the shape and the training setup: from the low bit up, the width
// (3 bits), the rows (5), the two hidden widths (3 each, a second width of 0
// meaning one hidden layer), epochs (2), batch size (3), weight decay,
// targets equal to the initial network's outputs (so whole batches
// back-propagate exactly zero deltas) and a learning rate of MaxFloat64, under
// which two steps the same way take a weight to ±Inf.
func FuzzMLPFitMatchesScalarLoops(f *testing.F) {
	f.Add(int64(1), uint32(0x75b62), []byte{}) // 3 wide, 13 rows, 4-3 hidden
	f.Add(int64(2), uint32(0xb87bc), []byte{}) // 5 wide, 24 rows, 8 hidden, L2
	f.Add(int64(3), uint32(0x26049), []byte{0x80, 0xfe, 0x81, 0xfd, 0x90, 0xff, 0xfc, 0xfb, 0x70})
	f.Add(int64(4), uint32(0x14159b), []byte{}) // zero output deltas
	f.Add(int64(5), uint32(0x23927a), []byte{}) // a learning rate of MaxFloat64
	f.Fuzz(func(t *testing.T, seed int64, cfg uint32, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		next := func() byte {
			if len(data) == 0 {
				return byte(rng.Intn(256))
			}
			b := data[0]
			data = data[1:]
			return b
		}
		field := func(lo, bits int) int { return int(cfg>>lo) & (1<<bits - 1) }
		width, rows := 1+field(0, 3)%5, 1+field(3, 5)%24
		hidden := []int{1 + field(8, 3)}
		if h := field(11, 3); h > 0 {
			hidden = append(hidden, h)
		}
		X := make([][]float64, rows)
		y := make([]float64, rows)
		for i := range X {
			X[i] = make([]float64, width)
			for j := range X[i] {
				X[i][j] = fuzzValue(next())
			}
			y[i] = fuzzValue(next())
		}
		build := func() *Regressor {
			m := New(append([]int(nil), hidden...), seed)
			m.Epochs, m.BatchSize = 1+field(14, 2)%3, 1+field(16, 3)
			if field(19, 1) != 0 {
				m.L2 = 1e-3
			}
			if field(21, 1) != 0 {
				m.LearningRate = math.MaxFloat64
			}
			return m
		}
		want := build()
		if field(20, 1) != 0 {
			y = zeroDeltaTargets(want, X)
		}
		refFit(want, X, y)
		for _, k := range platformKernels {
			got := build()
			if err := got.fit(X, y, k); err != nil {
				t.Fatalf("%s kernels: %v", k.name, err)
			}
			sameNetwork(t, got, want, X)
		}
	})
}
