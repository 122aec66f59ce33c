package metrics

import (
	"fmt"
	"math"
)

func check(y, yhat []float64) {
	if len(y) != len(yhat) || len(y) == 0 {
		// Programmer error: callers score a split's sides, never empty once Fit has accepted it.
		panic(fmt.Sprintf("metrics: bad lengths %d vs %d", len(y), len(yhat)))
	}
}

// MAE is the mean absolute error (Eq. 1); closer to zero is better.
func MAE(y, yhat []float64) float64 {
	check(y, yhat)
	var s float64
	for i := range y {
		s += math.Abs(y[i] - yhat[i])
	}
	return s / float64(len(y))
}

// MaxAbs is the maximum absolute error (Eq. 2); closer to zero is better.
func MaxAbs(y, yhat []float64) float64 {
	check(y, yhat)
	var m float64
	for i := range y {
		if d := math.Abs(y[i] - yhat[i]); d > m {
			m = d
		}
	}
	return m
}

// RMSE is the root mean squared error (Eq. 3); closer to zero is better.
func RMSE(y, yhat []float64) float64 {
	check(y, yhat)
	var s float64
	for i := range y {
		d := y[i] - yhat[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(y)))
}

// ExplainedVariance is Eq. 4: 1 − Var(y−ŷ)/Var(y). Best value 1.
// A constant truth vector yields 1 for perfect predictions, else -Inf is
// avoided by returning 0 when Var(y) == 0 and the residual varies.
func ExplainedVariance(y, yhat []float64) float64 {
	check(y, yhat)
	n := float64(len(y))
	var meanY, meanR float64
	for i := range y {
		meanY += y[i]
		meanR += y[i] - yhat[i]
	}
	meanY /= n
	meanR /= n
	var varY, varR float64
	for i := range y {
		dy := y[i] - meanY
		dr := (y[i] - yhat[i]) - meanR
		varY += dy * dy
		varR += dr * dr
	}
	if varY == 0 {
		if varR == 0 {
			return 1
		}
		return 0
	}
	return 1 - varR/varY
}

// R2 is the coefficient of determination (Eq. 5). Best value 1; can be
// negative for models worse than predicting the mean. A constant truth
// vector yields 1 for exact predictions and 0 otherwise.
func R2(y, yhat []float64) float64 {
	check(y, yhat)
	n := float64(len(y))
	var meanY float64
	for _, v := range y {
		meanY += v
	}
	meanY /= n
	var ssRes, ssTot float64
	for i := range y {
		d := y[i] - yhat[i]
		ssRes += d * d
		t := y[i] - meanY
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Scores bundles all five paper metrics, in Table I column order.
type Scores struct {
	MAE  float64
	MAX  float64
	RMSE float64
	EV   float64
	R2   float64
}

// Evaluate computes all five metrics at once.
func Evaluate(y, yhat []float64) Scores {
	return Scores{
		MAE:  MAE(y, yhat),
		MAX:  MaxAbs(y, yhat),
		RMSE: RMSE(y, yhat),
		EV:   ExplainedVariance(y, yhat),
		R2:   R2(y, yhat),
	}
}

// Add accumulates s2 into s (for fold averaging).
func (s Scores) Add(s2 Scores) Scores {
	return Scores{
		MAE:  s.MAE + s2.MAE,
		MAX:  s.MAX + s2.MAX,
		RMSE: s.RMSE + s2.RMSE,
		EV:   s.EV + s2.EV,
		R2:   s.R2 + s2.R2,
	}
}

// Scale multiplies every metric by f.
func (s Scores) Scale(f float64) Scores {
	return Scores{MAE: s.MAE * f, MAX: s.MAX * f, RMSE: s.RMSE * f, EV: s.EV * f, R2: s.R2 * f}
}

// String renders the scores as a Table I row fragment.
func (s Scores) String() string {
	return fmt.Sprintf("MAE=%.3f MAX=%.3f RMSE=%.3f EV=%.3f R2=%.3f", s.MAE, s.MAX, s.RMSE, s.EV, s.R2)
}
