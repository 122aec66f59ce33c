// Package cpuid reports the CPU features that the module's amd64 assembly
// needs. The simulation kernel's combinational pass (internal/sim), the
// MLP's training kernels (internal/ml/mlp) and the k-NN distance scan
// (internal/ml/knn) each pick their AVX body or their Go loops once, at
// init, from AVX; on every other GOARCH the package is empty and all three
// use the Go loops. The assembly is VEX-encoded throughout: a legacy-SSE
// instruction on an X or Y register fails TestAssemblyIsVEXOnly.
package cpuid
