// Package mat provides the small dense linear-algebra kernel used by the
// machine-learning packages: vectors, row-major matrices, Householder QR
// factorization, least-squares and ridge solvers, and a symmetric
// eigendecomposition.
//
// The package is deliberately minimal — it implements exactly what the
// regression models in internal/ml need, with no external dependencies.
package mat
