package mlp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ml"
)

// Activation selects the hidden-layer nonlinearity.
type Activation int

// Supported activations.
const (
	ReLU Activation = iota + 1
	Tanh
)

// Regressor is a feed-forward network with a linear output unit.
type Regressor struct {
	// Hidden lists the hidden layer widths (default [64, 32]).
	Hidden []int
	// Act is the hidden activation (default ReLU).
	Act Activation
	// Epochs is the number of passes over the data (default 300).
	Epochs int
	// BatchSize for mini-batch updates (default 32).
	BatchSize int
	// LearningRate for Adam (default 1e-3).
	LearningRate float64
	// L2 is the weight decay (default 0, no decay).
	L2 float64
	// Seed drives initialization and shuffling.
	Seed int64

	weights [][]float64 // per layer, row-major (out × in)
	biases  [][]float64
	dims    []int
	fitted  bool
}

// New returns an MLP with the given hidden layout and seed.
func New(hidden []int, seed int64) *Regressor {
	return &Regressor{Hidden: hidden, Seed: seed}
}

func (m *Regressor) defaults() {
	if len(m.Hidden) == 0 {
		m.Hidden = []int{64, 32}
	}
	if m.Act == 0 {
		m.Act = ReLU
	}
	if m.Epochs <= 0 {
		m.Epochs = 300
	}
	if m.BatchSize <= 0 {
		m.BatchSize = 32
	}
	if m.LearningRate <= 0 {
		m.LearningRate = 1e-3
	}
	if m.L2 < 0 {
		m.L2 = 0
	}
}

// affine computes dst[j] = b[j] + Σ_i w[j*len(x)+i]·x[i] for every output
// neuron j. Four neurons run side by side on independent accumulators; each
// sum still adds its terms in ascending i from the bias, so the result is
// the one-neuron-at-a-time loop's, bit for bit.
func affine(dst, w, b, x []float64) {
	n := len(x)
	b = b[:len(dst)]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		s0, s1, s2, s3 := b[j], b[j+1], b[j+2], b[j+3]
		w0 := w[j*n : j*n+n]
		w1 := w[j*n+n : j*n+2*n]
		w2 := w[j*n+2*n : j*n+3*n]
		w3 := w[j*n+3*n : j*n+4*n]
		for i, v := range x {
			s0 += w0[i] * v
			s1 += w1[i] * v
			s2 += w2[i] * v
			s3 += w3[i] * v
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < len(dst); j++ {
		s := b[j]
		wrow := w[j*n : j*n+n]
		for i, v := range x {
			s += wrow[i] * v
		}
		dst[j] = s
	}
}

// axpy adds a·x to dst, element by element.
func axpy(dst []float64, a float64, x []float64) {
	dst = dst[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		d, v := dst[i:i+4:i+4], x[i:i+4:i+4]
		d[0] += a * v[0]
		d[1] += a * v[1]
		d[2] += a * v[2]
		d[3] += a * v[3]
	}
	for ; i < len(x); i++ {
		dst[i] += a * x[i]
	}
}

// activate writes the hidden activation of pre into out.
func activate(out, pre []float64, act Activation) {
	out = out[:len(pre)]
	if act == Tanh {
		for j, s := range pre {
			out[j] = math.Tanh(s)
		}
		return
	}
	for j, s := range pre {
		if s < 0 {
			s = 0
		}
		out[j] = s
	}
}

// Fit trains the network with Adam.
func (m *Regressor) Fit(X [][]float64, y []float64) error {
	if err := ml.CheckXY(X, y); err != nil {
		return err
	}
	m.defaults()
	for _, h := range m.Hidden {
		if h < 1 {
			return fmt.Errorf("ml/mlp: hidden width %d", h)
		}
	}
	rng := rand.New(rand.NewSource(m.Seed))
	in := len(X[0])
	m.dims = append(append([]int{in}, m.Hidden...), 1)
	L := len(m.dims) - 1
	m.weights = make([][]float64, L)
	m.biases = make([][]float64, L)
	for l := 0; l < L; l++ {
		fanIn, fanOut := m.dims[l], m.dims[l+1]
		scale := math.Sqrt(2 / float64(fanIn)) // He init; fine for tanh too
		w := make([]float64, fanIn*fanOut)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.weights[l] = w
		m.biases[l] = make([]float64, fanOut)
	}

	// Adam state.
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
	// Forward/backward scratch.
	pre := make([][]float64, L) // pre-activations per layer
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
				clear(gw[l])
				clear(gb[l])
			}
			for _, idx := range batch {
				// Forward.
				out[0] = X[idx]
				for l := 0; l < L-1; l++ {
					affine(pre[l], m.weights[l], m.biases[l], out[l])
					activate(out[l+1], pre[l], m.Act)
				}
				affine(out[L], m.weights[L-1], m.biases[L-1], out[L-1]) // linear output
				// Backward.
				delta[L-1][0] = out[L][0] - y[idx]
				for l := L - 2; l >= 0; l-- {
					// delta[l][j] = act'(pre[l][j]) · Σ_k2 W[l+1][k2][j]·delta[l+1][k2],
					// accumulated one W[l+1] row at a time: every delta[l][j]
					// still adds its terms in ascending k2.
					d, p := delta[l], pre[l][:len(delta[l])]
					clear(d)
					for k2, up := range delta[l+1] {
						axpy(d, up, m.weights[l+1][k2*len(d):(k2+1)*len(d)])
					}
					if m.Act == Tanh {
						for j, t := range out[l+1][:len(d)] { // t = tanh(pre[l][j])
							d[j] *= 1 - t*t
						}
					} else {
						for j, s := range p {
							if s < 0 {
								d[j] *= 0
							}
						}
					}
				}
				for l := 0; l < L; l++ {
					x, g, bias := out[l], gw[l], gb[l][:len(delta[l])]
					for j, d := range delta[l] {
						axpy(g[j*len(x):(j+1)*len(x)], d, x)
						bias[j] += d
					}
				}
			}
			// Adam update.
			step++
			bs := float64(len(batch))
			corr1 := 1 - math.Pow(beta1, float64(step))
			corr2 := 1 - math.Pow(beta2, float64(step))
			for l := 0; l < L; l++ {
				w, g, m1, v1 := m.weights[l], gw[l], mw[l], vw[l]
				g, m1, v1 = g[:len(w)], m1[:len(w)], v1[:len(w)]
				for i := range w {
					gi := g[i]/bs + m.L2*w[i]
					m1[i] = beta1*m1[i] + (1-beta1)*gi
					v1[i] = beta2*v1[i] + (1-beta2)*gi*gi
					w[i] -= m.LearningRate * (m1[i] / corr1) / (math.Sqrt(v1[i]/corr2) + eps)
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
	return nil
}

// Predict runs a forward pass.
func (m *Regressor) Predict(x []float64) float64 {
	if !m.fitted {
		return 0
	}
	// One buffer per call, so concurrent Predicts share nothing: the layers
	// alternate between its two halves, each as wide as the widest layer.
	widest := 1
	for _, d := range m.dims[1:] {
		widest = max(widest, d)
	}
	buf := make([]float64, 2*widest)
	cur, next, spare := x, buf[:widest], buf[widest:]
	L := len(m.dims) - 1
	for l := 0; l < L; l++ {
		out := next[:m.dims[l+1]]
		affine(out, m.weights[l], m.biases[l], cur)
		if l < L-1 {
			activate(out, out, m.Act)
		}
		cur, next, spare = out, spare, next
	}
	return cur[0]
}

var _ ml.Regressor = (*Regressor)(nil)
