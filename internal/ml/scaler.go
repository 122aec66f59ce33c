package ml

import (
	"fmt"
	"math"
)

// Scaler learns a column-wise transformation on training data and applies it
// to new rows. Implementations never modify their inputs.
type Scaler interface {
	Fit(X [][]float64) error
	Transform(X [][]float64) [][]float64
	TransformRow(x []float64) []float64
}

// StandardScaler centers each column to zero mean and scales to unit
// variance (constant columns are centered only), matching scikit-learn's
// StandardScaler. The zero value is ready for Fit. The learned statistics
// are the exported fields, which are also the scaler's gob payload.
type StandardScaler struct {
	Mean  []float64
	Scale []float64
}

// check is what a decoded scaler must pass before TransformRow indexes it.
func (s *StandardScaler) check() error {
	if len(s.Mean) != len(s.Scale) {
		return fmt.Errorf("ml: scaler with %d means and %d scales", len(s.Mean), len(s.Scale))
	}
	return nil
}

// Fit learns per-column means and standard deviations.
func (s *StandardScaler) Fit(X [][]float64) error {
	if len(X) == 0 || len(X[0]) == 0 {
		return fmt.Errorf("%w: empty matrix", ErrBadData)
	}
	cols := len(X[0])
	s.Mean = make([]float64, cols)
	s.Scale = make([]float64, cols)
	n := float64(len(X))
	for _, row := range X {
		if len(row) != cols {
			return fmt.Errorf("%w: ragged matrix", ErrBadData)
		}
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Scale[j] += d * d
		}
	}
	for j := range s.Scale {
		sd := math.Sqrt(s.Scale[j] / n)
		if sd == 0 {
			sd = 1 // constant column: center only
		}
		s.Scale[j] = sd
	}
	return nil
}

// TransformRow scales a single row.
func (s *StandardScaler) TransformRow(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Scale[j]
	}
	return out
}

// Transform scales every row.
func (s *StandardScaler) Transform(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.TransformRow(row)
	}
	return out
}

// Pipeline chains a scaler with a model; the scaler is fitted on the
// training rows only, so cross-validation folds never leak statistics.
// A nil Scaler passes features through unchanged. The three fields are also
// the pipeline's gob payload.
type Pipeline struct {
	Scaler Scaler
	Model  Regressor
	Fitted bool
}

// Fit fits the scaler, transforms the training rows and fits the model.
func (p *Pipeline) Fit(X [][]float64, y []float64) error {
	if err := CheckXY(X, y); err != nil {
		return err
	}
	rows := X
	if p.Scaler != nil {
		if err := p.Scaler.Fit(X); err != nil {
			return err
		}
		rows = p.Scaler.Transform(X)
	}
	if err := p.Model.Fit(rows, y); err != nil {
		return err
	}
	p.Fitted = true
	return nil
}

// Predict transforms and predicts one row.
func (p *Pipeline) Predict(x []float64) float64 {
	if p.Scaler != nil {
		x = p.Scaler.TransformRow(x)
	}
	return p.Model.Predict(x)
}

var _ Regressor = (*Pipeline)(nil)
