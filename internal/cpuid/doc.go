// Package cpuid reports the CPU features that the module's amd64 assembly
// needs. The simulation kernel's combinational pass (internal/sim) and the
// MLP's training kernels (internal/ml/mlp) each pick their AVX body or their
// Go loops once, at init, from AVX; on every other GOARCH the package is
// empty and both use the Go loops.
package cpuid
