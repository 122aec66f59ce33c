//go:build !amd64

package knn

// Without the amd64 assembly there is no block kernel: Fit leaves no block
// copy, and scan sums every block with distances4.
const hasBlockKernel = false

func blockDistances(dst, x, blk []float64) { panic("ml/knn: no block kernel on this platform") }
