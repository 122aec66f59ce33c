package core

import (
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/obs"
)

// CorpusStudyConfig assembles a study from a registered corpus scenario.
// The zero value is usable: default scale, seed 1, and the scenario's own
// campaign geometry.
type CorpusStudyConfig struct {
	// Scale selects the circuit/workload size (ScaleSmall for smoke runs).
	Scale corpus.Scale
	// Seed drives circuit generation (randomized families) and workload
	// stimulus; 0 means 1.
	Seed int64
	// InjectionsPerFF overrides the scenario's default budget when > 0; a
	// negative budget is corpus.ErrBudget.
	InjectionsPerFF int
	// CampaignSeed overrides the scenario's default campaign seed when
	// non-zero.
	CampaignSeed int64
	// Model selects the campaign fault model; the zero value is SEU. As in
	// StudyConfig, the model must be FF-targeted (SET is rejected).
	Model fault.Model
	// Workers bounds campaign parallelism (0 = GOMAXPROCS).
	Workers int

	// Campaign runtime knobs, as in StudyConfig.
	ChunkJobs       int
	Shards          int
	Checkpoint      string
	Resume          bool
	CheckpointEvery int
	Progress        func(fault.Progress)
	// Metrics optionally receives campaign metric families (see
	// StudyConfig.Metrics).
	Metrics *obs.Registry
	// Logger optionally receives structured campaign records (see
	// StudyConfig.Logger).
	Logger *obs.Logger
}

// NewCorpusStudy materializes a corpus scenario into a Study: the full
// generate → synthesize → compile → workload → golden → features front end,
// with the campaign shape resolved against the scenario's defaults. Every
// Study method — ground truth, Table I protocols, learning curves,
// cross-circuit transfer — then works on the scenario exactly as on the
// paper's MAC, which is itself one (NewStudy).
func NewCorpusStudy(sc corpus.Scenario, cfg CorpusStudyConfig) (*Study, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return newStudy(sc, cfg.Scale, cfg.Seed, StudyConfig{
		InjectionsPerFF: cfg.InjectionsPerFF,
		CampaignSeed:    cfg.CampaignSeed,
		Model:           cfg.Model,
		Workers:         cfg.Workers,
		ChunkJobs:       cfg.ChunkJobs,
		Shards:          cfg.Shards,
		Checkpoint:      cfg.Checkpoint,
		Resume:          cfg.Resume,
		CheckpointEvery: cfg.CheckpointEvery,
		Progress:        cfg.Progress,
		Metrics:         cfg.Metrics,
		Logger:          cfg.Logger,
	})
}
