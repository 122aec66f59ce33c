package fault

import (
	"fmt"

	"repro/internal/sim"
)

// The reference replays and the Runner's concatenated chunk masks, for the
// fault_test suites.
var (
	ReferenceMasks  = referenceMasks
	ReferenceResult = referenceResult
	ChunkMasks      = chunkMasks
)

// Verdict is the whole-trace verdict of the tests: a stream of cls started at
// from observes rows [from, to) of faulty and gives its Verdict, which takes
// every later row as golden's.
func Verdict(cls Classifier, golden, faulty *sim.Trace, used uint64, from, to int) uint64 {
	s := cls.StartStream(golden, used, from)
	for c := from; c < to; c++ {
		s.Observe(c, golden.Row(c), faulty.Row(c))
	}
	return s.Verdict()
}

// CheckpointEvery is the Ledger's flush cadence in merged chunks.
const CheckpointEvery = checkpointEvery

// Kernel is the compiled kernel the Runner's plans simulate.
func (r *Runner) Kernel() (*sim.Kernel, error) { return r.kernel() }

// NewGoldenRunner is NewRunner after what corpus.Materialize does for it: one
// golden run recording the monitored outputs and the snapshots (into
// cfg.Snapshots when the test chose a cadence), unless cfg carries a golden
// trace already.
func NewGoldenRunner(p *sim.Program, stim *sim.Stimulus, monitors []int, cls Classifier, cfg RunnerConfig) (*Runner, error) {
	if cfg.Golden == nil {
		if cfg.Snapshots == nil {
			cfg.Snapshots = sim.NewSnapshots(p, stim, 0)
		}
		cfg.Golden, _ = sim.Run(sim.NewEngine(p), stim, sim.RunConfig{Monitors: monitors, Snapshots: cfg.Snapshots})
	}
	return NewRunner(p, stim, monitors, cls, cfg)
}

// ReplayBatch is the reference's replay of one batch of at most 64 jobs,
// lane i carrying jobs[i]: the faulty trace of the whole stimulus and the
// mask of lanes used.
func (r *Runner) ReplayBatch(jobs []Job) (*sim.Trace, uint64, error) {
	if len(jobs) > sim.Lanes {
		return nil, 0, fmt.Errorf("%d jobs do not fit one batch", len(jobs))
	}
	if err := r.validateJobs(jobs); err != nil {
		return nil, 0, err
	}
	faulty, used := r.replayBatch(sim.NewEngine(r.p), r.setEffects(jobs), jobs)
	return faulty, used, nil
}
