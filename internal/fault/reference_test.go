package fault

import "repro/internal/sim"

// replayBatches is the oracle every equivalence suite compares the Runner
// against: each 64-lane batch of a packing — position i carries
// jobs[order[i]] — is replayed on the interpreter (sim.Engine) from cycle 0
// to the end of the stimulus — no snapshot, no early exit, no repacking — and
// classified by a stream that observes its whole trace (Verdict). It returns
// one failure mask per batch, in position order. The events come from
// expandJob and appendGlitches, as in runBatchWide;
// TestReferenceMatchesScalarOracle ties it to a replay that shares nothing
// with either.
func replayBatches(r *Runner, jobs []Job, order []int) ([]uint64, error) {
	if err := r.validateJobs(jobs); err != nil {
		return nil, err
	}
	golden := r.cfg.Golden
	fx := r.setEffects(jobs)
	e := sim.NewEngine(r.p)
	batch := make([]Job, 0, sim.Lanes)
	masks := make([]uint64, 0, (len(jobs)+sim.Lanes-1)/sim.Lanes)
	for blo := 0; blo < len(jobs); blo += sim.Lanes {
		batch = batch[:0]
		for _, i := range order[blo:min(blo+sim.Lanes, len(jobs))] {
			batch = append(batch, jobs[i])
		}
		faulty, used := r.replayBatch(e, fx, batch)
		masks = append(masks, Verdict(r.cls, golden, faulty, used, 0, golden.Cycles()))
	}
	return masks, nil
}

// replayBatch replays one batch — lane i carries batch[i] — on e from cycle
// 0 to the end of the stimulus and returns its whole faulty trace, SET
// glitches applied, and the mask of lanes used.
func (r *Runner) replayBatch(e *sim.Engine, fx map[int64]setEffect, batch []Job) (*sim.Trace, uint64) {
	var flips []flipOp
	var glitches []laneGlitch
	var used uint64
	for lane, job := range batch {
		laneMask := uint64(1) << uint(lane)
		flips = r.expandJob(flips, fx, job, laneMask)
		glitches = r.appendGlitches(glitches, fx, job, laneMask)
		used |= laneMask
	}
	var sorter flipSorter
	flips = sorter.sort(flips)
	ptr := 0
	faulty, _ := sim.Run(e, r.stim, sim.RunConfig{
		Monitors: r.monitors,
		PreEval: func(c int) {
			for ; ptr < len(flips) && flips[ptr].cycle == c; ptr++ {
				switch f := &flips[ptr]; f.kind {
				case effForce0:
					e.ForceFF(f.ff, f.mask, false)
				case effForce1:
					e.ForceFF(f.ff, f.mask, true)
				default:
					e.FlipFF(f.ff, f.mask)
				}
			}
		},
	})
	for _, g := range glitches {
		faulty.XORWord(g.cycle, g.mon, g.mask)
	}
	return faulty, used
}

// referenceMasks replays the plan in the Runner's own packing, for
// mask-level comparisons: its masks are in the order a Runner's chunk masks
// concatenate to, whatever the chunk size.
func referenceMasks(r *Runner, jobs []Job) ([]uint64, error) {
	return replayBatches(r, jobs, cycleOrder(jobs))
}

// referenceResult replays the plan in plan order — an identity packing no
// campaign uses, kept here so that the reference and the Runner pack
// differently — and folds the masks per target on its own, into the Result a
// campaign over the same plan must report. In plan order the masks are
// the per-job outcome bits themselves.
func referenceResult(r *Runner, jobs []Job) (*Result, error) {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	masks, err := replayBatches(r, jobs, order)
	if err != nil {
		return nil, err
	}
	sh, err := newSharding(len(jobs), r.cfg.ChunkJobs)
	if err != nil {
		return nil, err
	}
	n := r.model.NumTargets(r.p)
	res := &Result{
		FDR:        make([]float64, n),
		Failures:   make([]int, n),
		Injections: make([]int, n),
		FailedJobs: masks,
		TotalRuns:  len(jobs),
		Batches:    len(masks),
		Chunks:     sh.numChunks,
	}
	for i, job := range jobs {
		res.Injections[job.FF]++
		if masks[i/sim.Lanes]>>uint(i%sim.Lanes)&1 == 1 {
			res.Failures[job.FF]++
		}
	}
	for t := range res.FDR {
		if res.Injections[t] > 0 {
			res.FDR[t] = float64(res.Failures[t]) / float64(res.Injections[t])
		}
	}
	return res, nil
}

// insertionSortFlips is the event ordering the Runner used before
// flipSorter, kept verbatim as its reference: stable by cycle.
func insertionSortFlips(flips []flipOp) {
	for i := 1; i < len(flips); i++ {
		f := flips[i]
		j := i - 1
		for j >= 0 && flips[j].cycle > f.cycle {
			flips[j+1] = flips[j]
			j--
		}
		flips[j+1] = f
	}
}
