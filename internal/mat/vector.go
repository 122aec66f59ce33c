package mat

import "fmt"

// Dot returns the inner product of x and y.
// It panics if the lengths differ; vector helpers are hot paths and callers
// control both operands.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		// Programmer error: linreg's Predict, the one caller, gets width-checked vectors.
		panic(fmt.Sprintf("mat: dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}
