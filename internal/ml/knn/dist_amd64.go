package knn

import "repro/internal/cpuid"

// hasBlockKernel reports whether this CPU runs blockDistances: it needs AVX.
var hasBlockKernel = cpuid.AVX()

// blockDistances sets dst[4b+j] to the distance from x to row j of block b
// of blk, for each of the len(dst)/4 blocks, an even number, every one a
// full sum and distances4's bit for bit. blk holds blocks of len(x) ≥ 1
// features (see blocks).
func blockDistances(dst, x, blk []float64) { distAVX(dst, x, blk[:len(dst)*len(x)]) }

// distAVX is blockDistances with a YMM register per block: for each feature
// f in ascending order it broadcasts x[f], and each lane adds |x[f] − a[f]|
// to its row's sum with VSUBPD, VANDPD (the sign bit cleared, as math.Abs
// does) and VADDPD. Those round each lane as SUBSD and ADDSD do, with the
// operands in distances4's order and no fused multiply-add, so every
// distance is distances4's. Where both operands are NaN, the payload passed
// on is the first source's, which is the one this toolchain's uninstrumented
// build of distances4 passes on (docs/ARCHITECTURE.md "ML numerics").
//
//go:noescape
func distAVX(dst, x, blk []float64)
