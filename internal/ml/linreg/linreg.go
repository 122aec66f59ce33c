package linreg

import (
	"encoding/gob"
	"fmt"

	"repro/internal/mat"
	"repro/internal/ml"
)

// LinearRegression fits y ≈ w·x + b by minimizing the residual sum of
// squares. The zero value is a plain OLS model; set Lambda for ridge
// regularization (the intercept is never penalized in spirit — with
// standardized features the distinction is immaterial, and the augmented
// column trick keeps the solver simple). The fields are also the model's gob
// payload.
type LinearRegression struct {
	// Lambda is the L2 penalty; 0 means ordinary least squares.
	Lambda float64

	// Weights are the learned coefficients (without the intercept).
	Weights   []float64
	Intercept float64
	Fitted    bool
}

// NewRidge returns a ridge regressor with the given penalty; 0 is OLS.
func NewRidge(lambda float64) *LinearRegression { return &LinearRegression{Lambda: lambda} }

// Fit solves the least squares problem.
func (l *LinearRegression) Fit(X [][]float64, y []float64) error {
	if err := ml.CheckXY(X, y); err != nil {
		return err
	}
	rows, cols := len(X), len(X[0])
	aug := cols + 1 // the intercept is a constant column
	if rows < aug && l.Lambda == 0 {
		return fmt.Errorf("ml/linreg: %d samples cannot determine %d coefficients", rows, aug)
	}
	a := mat.New(rows, aug)
	for i, row := range X {
		r := a.RawRow(i)
		copy(r, row)
		r[cols] = 1
	}
	sol, err := mat.RidgeSolve(a, y, l.Lambda)
	if err != nil {
		return fmt.Errorf("ml/linreg: %w", err)
	}
	l.Weights, l.Intercept = sol[:cols], sol[cols]
	l.Fitted = true
	return nil
}

// Predict evaluates the linear model.
func (l *LinearRegression) Predict(x []float64) float64 {
	if !l.Fitted {
		return 0
	}
	return mat.Dot(l.Weights, x) + l.Intercept
}

var _ ml.Regressor = (*LinearRegression)(nil)

func init() { gob.RegisterName("ffr/linreg.LinearRegression", &LinearRegression{}) }

// wire is LinearRegression without its methods: what gob sees of one.
type wire LinearRegression

// GobEncode exports the configuration and learned coefficients.
func (l *LinearRegression) GobEncode() ([]byte, error) { return ml.GobState((*wire)(l)) }

// GobDecode restores a linear model. There is nothing to check: any
// coefficient vector is one.
func (l *LinearRegression) GobDecode(data []byte) error { return ml.UngobState(data, (*wire)(l), nil) }
