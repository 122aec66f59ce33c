package fault

import "repro/internal/sim"

// The reference replay and the Runner's concatenated chunk masks, for the
// fault_test suites.
var (
	ReferenceMasks = referenceMasks
	ChunkMasks     = chunkMasks
)

// ReferenceResult folds the reference masks through the Runner's own merge
// into the Result a campaign over the same plan must report.
func ReferenceResult(r *Runner, jobs []Job) (*Result, error) {
	masks, err := referenceMasks(r, jobs)
	if err != nil {
		return nil, err
	}
	sh, err := newSharding(len(jobs), r.cfg.ChunkJobs)
	if err != nil {
		return nil, err
	}
	order, err := scheduleOrder(jobs, r.schedule)
	if err != nil {
		return nil, err
	}
	done := make(map[int][]uint64, sh.numChunks)
	for ci := 0; ci < sh.numChunks; ci++ {
		lo, _ := sh.chunkRange(ci)
		done[ci] = masks[lo/sim.Lanes:][:sh.chunkBatches(ci)]
	}
	return r.merge(jobs, order, sh, done, 0), nil
}
