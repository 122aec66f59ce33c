//go:build !amd64

package mlp

// platformKernels lists the kernel sets this machine can run, the one Fit
// uses first. Without the amd64 assembly that is the Go loops alone.
var platformKernels = []kernels{goKernels}
