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
	m.dims = append(append([]int{in}, m.Hidden...), 1)
	L := len(m.dims) - 1
	m.weights = make([][]float64, L)
	m.biases = make([][]float64, L)
	for l := 0; l < L; l++ {
		fanIn, fanOut := m.dims[l], m.dims[l+1]
		scale := math.Sqrt(2 / float64(fanIn))
		w := make([]float64, fanIn*fanOut)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.weights[l] = w
		m.biases[l] = make([]float64, fanOut)
	}

	mw := make([][]float64, L)
	vw := make([][]float64, L)
	mb := make([][]float64, L)
	vb := make([][]float64, L)
	for l := 0; l < L; l++ {
		mw[l] = make([]float64, len(m.weights[l]))
		vw[l] = make([]float64, len(m.weights[l]))
		mb[l] = make([]float64, len(m.biases[l]))
		vb[l] = make([]float64, len(m.biases[l]))
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8

	n := len(X)
	order := rng.Perm(n)
	pre := make([][]float64, L)
	out := make([][]float64, L+1)
	for l := 0; l < L; l++ {
		pre[l] = make([]float64, m.dims[l+1])
		out[l+1] = make([]float64, m.dims[l+1])
	}
	delta := make([][]float64, L)
	for l := 0; l < L; l++ {
		delta[l] = make([]float64, m.dims[l+1])
	}
	gw := make([][]float64, L)
	gb := make([][]float64, L)
	for l := 0; l < L; l++ {
		gw[l] = make([]float64, len(m.weights[l]))
		gb[l] = make([]float64, len(m.biases[l]))
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
					fanIn := m.dims[l]
					for j := 0; j < m.dims[l+1]; j++ {
						s := m.biases[l][j]
						wrow := m.weights[l][j*fanIn : (j+1)*fanIn]
						for i2, v := range out[l] {
							s += wrow[i2] * v
						}
						pre[l][j] = s
						if l == L-1 {
							out[l+1][j] = s
						} else {
							out[l+1][j] = refAct(m.Act, s)
						}
					}
				}
				diff := out[L][0] - y[idx]
				delta[L-1][0] = diff
				for l := L - 2; l >= 0; l-- {
					fanIn := m.dims[l+1]
					for j := 0; j < m.dims[l+1]; j++ {
						var s float64
						for k2 := 0; k2 < m.dims[l+2]; k2++ {
							s += m.weights[l+1][k2*fanIn+j] * delta[l+1][k2]
						}
						delta[l][j] = s * refActGrad(m.Act, pre[l][j])
					}
				}
				for l := 0; l < L; l++ {
					fanIn := m.dims[l]
					for j := 0; j < m.dims[l+1]; j++ {
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
				for i := range m.weights[l] {
					g := gw[l][i]/bs + m.L2*m.weights[l][i]
					mw[l][i] = beta1*mw[l][i] + (1-beta1)*g
					vw[l][i] = beta2*vw[l][i] + (1-beta2)*g*g
					m.weights[l][i] -= m.LearningRate * (mw[l][i] / corr1) / (math.Sqrt(vw[l][i]/corr2) + eps)
				}
				for i := range m.biases[l] {
					g := gb[l][i] / bs
					mb[l][i] = beta1*mb[l][i] + (1-beta1)*g
					vb[l][i] = beta2*vb[l][i] + (1-beta2)*g*g
					m.biases[l][i] -= m.LearningRate * (mb[l][i] / corr1) / (math.Sqrt(vb[l][i]/corr2) + eps)
				}
			}
		}
	}
	m.fitted = true
}

func refAct(a Activation, v float64) float64 {
	if a == Tanh {
		return math.Tanh(v)
	}
	if v < 0 {
		return 0
	}
	return v
}

func refActGrad(a Activation, pre float64) float64 {
	if a == Tanh {
		t := math.Tanh(pre)
		return 1 - t*t
	}
	if pre < 0 {
		return 0
	}
	return 1
}

// refPredict is the forward pass Predict replaced, one buffer per layer.
func refPredict(m *Regressor, x []float64) float64 {
	cur := x
	L := len(m.dims) - 1
	for l := 0; l < L; l++ {
		fanIn := m.dims[l]
		next := make([]float64, m.dims[l+1])
		for j := range next {
			s := m.biases[l][j]
			wrow := m.weights[l][j*fanIn : (j+1)*fanIn]
			for i, v := range cur {
				s += wrow[i] * v
			}
			if l == L-1 {
				next[j] = s
			} else {
				next[j] = refAct(m.Act, s)
			}
		}
		cur = next
	}
	return cur[0]
}

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
	cases := []struct {
		name   string
		hidden []int
		act    Activation
		l2     float64
	}{
		{"relu-7-3", []int{7, 3}, ReLU, 0},
		{"tanh-7-3", []int{7, 3}, Tanh, 0},
		{"relu-64-32", []int{64, 32}, ReLU, 0},
		{"tanh-5", []int{5}, Tanh, 1e-4},
		{"relu-1-9-2", []int{1, 9, 2}, ReLU, 1e-3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Regressor {
				m := New(append([]int(nil), tc.hidden...), 5)
				m.Act, m.L2, m.Epochs, m.BatchSize = tc.act, tc.l2, 12, 16
				return m
			}
			got, want := build(), build()
			if err := got.Fit(X, y); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			refFit(want, X, y)
			for l := range want.weights {
				for i, w := range want.weights[l] {
					if math.Float64bits(got.weights[l][i]) != math.Float64bits(w) {
						t.Fatalf("layer %d weight %d: %x, scalar loops give %x", l, i, got.weights[l][i], w)
					}
				}
				for i, b := range want.biases[l] {
					if math.Float64bits(got.biases[l][i]) != math.Float64bits(b) {
						t.Fatalf("layer %d bias %d: %x, scalar loops give %x", l, i, got.biases[l][i], b)
					}
				}
			}
			for i, x := range X {
				if p, r := got.Predict(x), refPredict(want, x); math.Float64bits(p) != math.Float64bits(r) {
					t.Fatalf("Predict(row %d) = %x, scalar forward pass gives %x", i, p, r)
				}
			}
		})
	}
}
