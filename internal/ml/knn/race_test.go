//go:build race

package knn

// The race detector instruments the Go loops, as the fuzzer does (see
// sameBits).
func init() { instrumented = true }
