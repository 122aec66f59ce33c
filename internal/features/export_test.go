package features

// Slice flattens the vector in Names order.
func (v *Vector) Slice() []float64 {
	flat := v.array()
	return flat[:]
}
