package mlp

import (
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ml"
)

// Activation is what a payload says about the hidden-layer nonlinearity. One
// is implemented; a payload naming another is refused.
type Activation int

// ReLU is max(0, s).
const ReLU Activation = 1

// Regressor is a feed-forward network with ReLU hidden layers and a linear
// output unit. The fields are also the model's gob payload.
type Regressor struct {
	// Hidden lists the hidden layer widths (default [64, 32]).
	Hidden []int
	// Act is the hidden activation; the zero value means ReLU.
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

	// Weights holds one row-major (out × in) matrix per layer, Biases one
	// vector; Dims lists the layer widths from the input to the one output.
	Weights [][]float64
	Biases  [][]float64
	Dims    []int
	Fitted  bool
}

// New returns an MLP with the given hidden layout and seed.
func New(hidden []int, seed int64) *Regressor {
	return &Regressor{Hidden: hidden, Seed: seed}
}

// check is what Fit asks of a configured model and GobDecode of a decoded
// one, before Predict indexes it: the implemented activation (the zero value
// means it too) and, once fitted, a weight matrix and a bias vector of the
// shape Dims gives for every layer, down to the one output.
func (m *Regressor) check() error {
	if m.Act != 0 && m.Act != ReLU {
		return fmt.Errorf("ml/mlp: activation %d: only ReLU (%d) is implemented", m.Act, ReLU)
	}
	if !m.Fitted {
		return nil
	}
	L := len(m.Dims) - 1
	if L < 1 || len(m.Weights) != L || len(m.Biases) != L || m.Dims[0] < 1 || m.Dims[L] != 1 {
		return fmt.Errorf("ml/mlp: %d weight matrices and %d bias vectors for layer widths %v",
			len(m.Weights), len(m.Biases), m.Dims)
	}
	for l, w := range m.Weights {
		// out ≥ 1 is a slice's length, so in·out cannot overflow unnoticed.
		in, out := m.Dims[l], m.Dims[l+1]
		if out < 1 || len(m.Biases[l]) != out || len(w)%out != 0 || len(w)/out != in {
			return fmt.Errorf("ml/mlp: layer %d has %d weights and %d biases for %d×%d",
				l, len(w), len(m.Biases[l]), out, in)
		}
	}
	return nil
}

func (m *Regressor) defaults() {
	if len(m.Hidden) == 0 {
		m.Hidden = []int{64, 32}
	}
	m.Act = ReLU
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

// finite reports whether every element of x is finite: v−v is 0 for a finite
// v and NaN for ±Inf or NaN.
func finite(x []float64) bool {
	for _, v := range x {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// activate writes the hidden activation (ReLU) of pre into out.
func activate(out, pre []float64) {
	out = out[:len(pre)]
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
	if err := m.check(); err != nil {
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
	m.Dims = append(append([]int{in}, m.Hidden...), 1)
	L := len(m.Dims) - 1
	m.Weights = make([][]float64, L)
	m.Biases = make([][]float64, L)
	for l := 0; l < L; l++ {
		fanIn, fanOut := m.Dims[l], m.Dims[l+1]
		scale := math.Sqrt(2 / float64(fanIn)) // He init
		w := make([]float64, fanIn*fanOut)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.Weights[l] = w
		m.Biases[l] = make([]float64, fanOut)
	}

	// Adam state.
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
	// Forward/backward scratch.
	pre := make([][]float64, L) // pre-activations per layer
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
	// Back-propagation skips the terms of a zero delta. Every sum it would
	// add them to starts at +0, and under round-to-nearest a sum that starts
	// at +0 is never −0, so adding ±0 leaves it as it is. A zero times ±Inf
	// or NaN is NaN, not ±0, so a term is skipped only when the values it
	// multiplies are finite: the weights of layer l (finiteW[l], fixed for a
	// batch) or the layer's input (finiteX).
	finiteW := make([]bool, L)

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
				finiteW[l] = finite(m.Weights[l])
			}
			for _, idx := range batch {
				// Forward.
				out[0] = X[idx]
				for l := 0; l < L-1; l++ {
					affine(pre[l], m.Weights[l], m.Biases[l], out[l])
					activate(out[l+1], pre[l])
				}
				affine(out[L], m.Weights[L-1], m.Biases[L-1], out[L-1]) // linear output
				// Backward.
				delta[L-1][0] = out[L][0] - y[idx]
				for l := L - 2; l >= 0; l-- {
					// delta[l][j] = act'(pre[l][j]) · Σ_k2 W[l+1][k2][j]·delta[l+1][k2],
					// accumulated one W[l+1] row at a time: every delta[l][j]
					// still adds its terms in ascending k2.
					d, p := delta[l], pre[l][:len(delta[l])]
					clear(d)
					for k2, up := range delta[l+1] {
						if up == 0 && finiteW[l+1] {
							continue
						}
						axpy(d, up, m.Weights[l+1][k2*len(d):(k2+1)*len(d)])
					}
					for j, s := range p {
						if s < 0 {
							d[j] *= 0
						}
					}
				}
				for l := 0; l < L; l++ {
					x, g, bias := out[l], gw[l], gb[l][:len(delta[l])]
					finiteX := finite(x)
					for j, d := range delta[l] {
						if d == 0 && finiteX {
							continue
						}
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
				w, g, m1, v1 := m.Weights[l], gw[l], mw[l], vw[l]
				g, m1, v1 = g[:len(w)], m1[:len(w)], v1[:len(w)]
				for i := range w {
					gi := g[i]/bs + m.L2*w[i]
					m1[i] = beta1*m1[i] + (1-beta1)*gi
					v1[i] = beta2*v1[i] + (1-beta2)*gi*gi
					w[i] -= m.LearningRate * (m1[i] / corr1) / (math.Sqrt(v1[i]/corr2) + eps)
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
	return nil
}

// Predict runs a forward pass.
func (m *Regressor) Predict(x []float64) float64 {
	if !m.Fitted {
		return 0
	}
	// One buffer per call, so concurrent Predicts share nothing: the layers
	// alternate between its two halves, each as wide as the widest layer.
	widest := 1
	for _, d := range m.Dims[1:] {
		widest = max(widest, d)
	}
	buf := make([]float64, 2*widest)
	cur, next, spare := x, buf[:widest], buf[widest:]
	L := len(m.Dims) - 1
	for l := 0; l < L; l++ {
		out := next[:m.Dims[l+1]]
		affine(out, m.Weights[l], m.Biases[l], cur)
		if l < L-1 {
			activate(out, out)
		}
		cur, next, spare = out, spare, next
	}
	return cur[0]
}

var _ ml.Regressor = (*Regressor)(nil)

func init() { gob.RegisterName("ffr/mlp.Regressor", &Regressor{}) }

// wire is Regressor without its methods: what gob sees of one.
type wire Regressor

// GobEncode exports the configuration and the learned parameters.
func (m *Regressor) GobEncode() ([]byte, error) { return ml.GobState((*wire)(m)) }

// GobDecode restores an MLP.
func (m *Regressor) GobDecode(data []byte) error { return ml.UngobState(data, (*wire)(m), m.check) }
