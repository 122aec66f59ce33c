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
		l2     float64
	}{
		{"relu-7-3", []int{7, 3}, 0},
		{"relu-64-32", []int{64, 32}, 0},
		{"relu-5", []int{5}, 1e-4},
		{"relu-1-9-2", []int{1, 9, 2}, 1e-3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Regressor {
				m := New(append([]int(nil), tc.hidden...), 5)
				m.L2, m.Epochs, m.BatchSize = tc.l2, 12, 16
				return m
			}
			got, want := build(), build()
			if err := got.Fit(X, y); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			refFit(want, X, y)
			for l := range want.Weights {
				for i, w := range want.Weights[l] {
					if math.Float64bits(got.Weights[l][i]) != math.Float64bits(w) {
						t.Fatalf("layer %d weight %d: %x, scalar loops give %x", l, i, got.Weights[l][i], w)
					}
				}
				for i, b := range want.Biases[l] {
					if math.Float64bits(got.Biases[l][i]) != math.Float64bits(b) {
						t.Fatalf("layer %d bias %d: %x, scalar loops give %x", l, i, got.Biases[l][i], b)
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
