package fault

import "repro/internal/sim"

// The reference replay and the Runner's concatenated chunk masks, for the
// fault_test suites.
var (
	ReferenceMasks = referenceMasks
	ChunkMasks     = chunkMasks
)

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

// ReferenceResult folds the reference masks through the Runner's own ledger
// into the Result a campaign over the same plan must report.
func ReferenceResult(r *Runner, jobs []Job) (*Result, error) {
	masks, err := referenceMasks(r, jobs)
	if err != nil {
		return nil, err
	}
	pl, err := r.Prepare(jobs)
	if err != nil {
		return nil, err
	}
	lg, err := pl.OpenLedger()
	if err != nil {
		return nil, err
	}
	for ci := 0; ci < pl.sh.numChunks; ci++ {
		lo, _ := pl.sh.chunkRange(ci)
		if _, err := lg.Add(ci, masks[lo/sim.Lanes:][:pl.sh.chunkBatches(ci)]); err != nil {
			return nil, err
		}
	}
	return lg.Result()
}
