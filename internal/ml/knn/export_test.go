package knn

// PlatformScans names the distance scans this machine can run, the one Fit
// and GobDecode arrange for first: "avx", where the CPU has the block
// kernel, then "go", distances4.
func PlatformScans() []string {
	if hasBlockKernel {
		return []string{"avx", "go"}
	}
	return []string{"go"}
}

// UseScan makes r's scan run the implementation of PlatformScans named name:
// "go" drops r's block copy, as a hand-built model has none, and "avx"
// derives it again.
func (r *Regressor) UseScan(name string) {
	switch {
	case name == "go":
		r.blk = nil
	case name == "avx" && hasBlockKernel:
		r.blk = blocks(r.X)
	default:
		panic("ml/knn: no distance scan " + name)
	}
}
