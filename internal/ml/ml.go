package ml

import (
	"errors"
	"fmt"
)

// ErrNotFitted is returned by Predict before a successful Fit.
var ErrNotFitted = errors.New("ml: model not fitted")

// ErrBadData is returned for malformed training data.
var ErrBadData = errors.New("ml: bad data")

// Regressor is the supervised regression contract: learn a mapping from
// feature vectors to a continuous target, then predict on new vectors.
// Predict on an unfitted model returns 0 (all seven models do); callers
// should Fit first.
type Regressor interface {
	// Fit trains on rows X with targets y (len(X) == len(y), all rows
	// equally wide). Implementations must copy what they need; callers
	// may reuse the slices.
	Fit(X [][]float64, y []float64) error
	// Predict returns the estimate for one feature vector.
	//
	// Concurrency contract: once Fit has returned, the fitted state is
	// read-only and Predict must be safe to call from multiple goroutines
	// simultaneously (the prediction service and the parallel batch
	// evaluators rely on this). Fit itself is not safe to run concurrently
	// with Predict on the same instance.
	Predict(x []float64) float64
}

// Factory creates fresh, identically configured models; cross-validation
// trains one instance per fold.
type Factory func() Regressor

// PredictAll runs Predict over every row.
func PredictAll(m Regressor, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

// CheckXY validates training data shape.
func CheckXY(X [][]float64, y []float64) error {
	if len(X) == 0 {
		return fmt.Errorf("%w: empty training set", ErrBadData)
	}
	if len(X) != len(y) {
		return fmt.Errorf("%w: %d rows vs %d targets", ErrBadData, len(X), len(y))
	}
	w := len(X[0])
	if w == 0 {
		return fmt.Errorf("%w: zero-width rows", ErrBadData)
	}
	for i, row := range X {
		if len(row) != w {
			return fmt.Errorf("%w: row %d has %d columns, want %d", ErrBadData, i, len(row), w)
		}
	}
	return nil
}

// Gather selects rows of X (and entries of y) by index.
func Gather(X [][]float64, y []float64, idx []int) ([][]float64, []float64) {
	gx := make([][]float64, len(idx))
	gy := make([]float64, len(idx))
	for k, i := range idx {
		gx[k] = X[i]
		gy[k] = y[i]
	}
	return gx, gy
}
