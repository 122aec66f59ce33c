package core

import (
	"fmt"

	"repro/internal/corpus"
)

// CorpusStudyConfig is StudyConfig under the name a corpus study's callers
// know it by. The zero value is usable: ScaleSmall, seed 1, and the
// scenario's own campaign geometry; MAC and Bench are NewStudy's.
type CorpusStudyConfig = StudyConfig

// NewCorpusStudy materializes a corpus scenario into a Study: the full
// generate → synthesize → compile → workload → golden → features front end,
// with the campaign shape resolved against the scenario's defaults. Every
// Study method — ground truth, Table I protocols, learning curves,
// cross-circuit transfer — then works on the scenario exactly as on the
// paper's MAC, which is itself one (NewStudy).
func NewCorpusStudy(sc corpus.Scenario, cfg CorpusStudyConfig) (*Study, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, fmt.Errorf("core: study fault model: %w", err)
	}
	if !cfg.Model.TargetsFFs() {
		return nil, fmt.Errorf("core: study fault model %q targets combinational cells; "+
			"studies need an FF-targeted model (per-FF features cannot describe comb targets)", cfg.Model)
	}
	g, err := sc.Campaign(cfg.InjectionsPerFF, cfg.CampaignSeed)
	if err != nil {
		return nil, fmt.Errorf("core: study: %w", err)
	}
	cfg.InjectionsPerFF, cfg.CampaignSeed = g.InjectionsPerFF, g.CampaignSeed
	m, err := sc.Materialize(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: study: %w", err)
	}
	cfg.Seed = m.Seed
	return &Study{Config: cfg, Materialized: m}, nil
}
