// Package knn implements the paper's k-Nearest Neighbors regressor
// (Section IV-B2): predictions are the inverse-distance weighted average of
// the k closest training points under Manhattan distance. The paper's tuned
// model is k=3.
package knn
