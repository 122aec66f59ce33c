package core

import (
	"context"
	"fmt"
	"log/slog"

	"repro/internal/circuit"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/sim"
)

// StudyConfig assembles one end-to-end study.
type StudyConfig struct {
	// MAC is the device-under-test configuration and Bench its testbench
	// workload (NewStudy; a corpus study's scenario brings its own).
	MAC   circuit.MACConfig
	Bench circuit.MACBenchConfig
	// Scale selects the circuit/workload size of a corpus study; the zero
	// value is ScaleSmall, the smoke-run size. NewStudy's MAC and Bench fix
	// the size themselves.
	Scale corpus.Scale
	// Seed drives circuit generation (randomized families) and workload
	// stimulus; 0 means 1.
	Seed int64
	// InjectionsPerFF is the flat-campaign budget (the paper uses 170);
	// 0 means the scenario's default.
	InjectionsPerFF int
	// CampaignSeed drives injection-time sampling; 0 means the scenario's
	// default.
	CampaignSeed int64
	// Model selects the campaign fault model (see fault.Model); the zero
	// value is the paper's SEU reference model. Studies require an
	// FF-targeted model — SEU, MBU, stuck-at, optionally windowed — because
	// the estimation flow regresses per-flip-flop features onto per-target
	// FDR; SET targets combinational cells and is rejected.
	Model fault.Model
	// Workers bounds campaign parallelism (0 = GOMAXPROCS).
	Workers int

	// Campaign runtime knobs (see fault.RunnerConfig).

	// ChunkJobs is the shard chunk size of every campaign in jobs, rounded
	// up to whole 64-lane batches (0 = fault.DefaultChunkJobs); resuming a
	// checkpoint requires the same chunk size.
	ChunkJobs int
	// Checkpoint enables periodic campaign checkpointing to this file.
	Checkpoint string
	// Resume restarts an interrupted ground-truth campaign from
	// Checkpoint instead of from scratch.
	Resume bool
	// Progress, when non-nil, receives campaign progress updates.
	Progress func(fault.Progress)
	// Metrics optionally receives the ffr_campaign_* metric families of
	// every campaign this study runs (ground truth and partial); nil
	// disables campaign metrics.
	Metrics *obs.Registry
	// Logger optionally receives structured campaign records; nil
	// disables logging.
	Logger *slog.Logger
}

// DefaultStudyConfig reproduces the paper's setup: the 1054-FF circuit and
// PaperInjections per flip-flop.
func DefaultStudyConfig() StudyConfig {
	return StudyConfig{
		MAC:             circuit.DefaultMACConfig(),
		Bench:           circuit.DefaultMACBenchConfig(),
		InjectionsPerFF: PaperInjections,
		CampaignSeed:    2019, // DSN 2019
	}
}

// Study is an experiment context: a materialized scenario — synthesized
// netlist, compiled simulation program, workload bench, golden trace,
// activity and extracted features, all promoted from the embedded
// corpus.Materialized — the campaign configuration, and, after
// RunGroundTruth, the per-flip-flop FDR reference.
//
// NewCorpusStudy materializes any scenario; NewStudy is the same over
// corpus.MACScenario, the paper's MAC loopback flow. There is no other
// difference between the two.
type Study struct {
	// Config holds the resolved configuration: Seed, InjectionsPerFF and
	// CampaignSeed are never zero.
	Config StudyConfig
	*corpus.Materialized

	// Ground truth, populated by RunGroundTruth.
	Campaign *fault.Result
}

// NewStudy builds the device, synthesizes it, compiles the simulator,
// builds the testbench, runs the golden simulation (capturing activity) and
// extracts all per-flip-flop features. It does not run the fault campaign;
// call RunGroundTruth for the reference FDR data.
func NewStudy(cfg StudyConfig) (*Study, error) {
	cfg.Scale, cfg.Seed = corpus.ScaleDefault, 1
	return NewCorpusStudy(corpus.MACScenario(cfg.MAC, cfg.Bench), cfg)
}

// ScenarioID returns the "circuit/workload" tag of the study; it flows into
// saved model artifacts so the prediction service can tell models apart.
func (s *Study) ScenarioID() string { return s.Scenario.ID() }

// Stim returns the workload stimulus.
func (s *Study) Stim() *sim.Stimulus { return s.Bench.Stim }

// ActiveCycles returns the injection window [0, ActiveCycles).
func (s *Study) ActiveCycles() int { return s.Bench.ActiveCycles }

// GoldenTrace returns the fault-free reference trace every campaign of this
// study classifies against.
func (s *Study) GoldenTrace() *sim.Trace { return s.Golden }

// campaign runs jobs to completion on a runner over the materialization's
// golden trace and snapshots, so nothing is re-simulated per campaign. Every
// campaign of a study comes through here — ground truth, partial campaigns,
// planner rounds — and they differ only in the jobs and the checkpoint they
// bring.
func (s *Study) campaign(ctx context.Context, jobs []fault.Job, checkpoint string, resume bool) (*fault.Result, error) {
	r, err := s.Runner(fault.RunnerConfig{
		Model:          s.Config.Model,
		ChunkJobs:      s.Config.ChunkJobs,
		Workers:        s.Config.Workers,
		CheckpointPath: checkpoint,
		Resume:         resume,
		OnProgress:     s.Config.Progress,
		Metrics:        s.Config.Metrics,
		Logger:         s.Config.Logger,
	})
	if err != nil {
		return nil, err
	}
	return r.RunContext(ctx, jobs)
}

// RunGroundTruth executes the paper's full flat statistical fault-injection
// campaign (Section IV-A) on the sharded runner and stores the resulting
// per-FF FDR reference. When the study is configured with a checkpoint it
// periodically persists campaign state and can resume an interrupted run.
// It is idempotent: repeated calls reuse the first result.
func (s *Study) RunGroundTruth() (*fault.Result, error) {
	return s.RunGroundTruthContext(context.Background())
}

// RunGroundTruthContext is RunGroundTruth with cancellation: on ctx
// cancellation the campaign flushes its checkpoint (when configured) and
// returns an error wrapping fault.ErrInterrupted.
func (s *Study) RunGroundTruthContext(ctx context.Context) (*fault.Result, error) {
	if s.Campaign != nil {
		return s.Campaign, nil
	}
	jobs := s.Jobs(s.Config.Model, s.Config.InjectionsPerFF, s.Config.CampaignSeed)
	res, err := s.campaign(ctx, jobs, s.Config.Checkpoint, s.Config.Resume)
	if err != nil {
		return nil, fmt.Errorf("core: ground-truth campaign: %w", err)
	}
	s.Campaign = res
	return res, nil
}

// RunPartialCampaign fault-injects only the given flip-flops — the flow's
// cost-saving mode: the training subset is measured, the rest predicted.
// Partial plans are not checkpointed (their plan fingerprint differs from
// the ground truth's). An index outside the fault model's targets is an
// error.
func (s *Study) RunPartialCampaign(ffs []int) (*fault.Result, error) {
	res, err := (&studyTarget{s}).RunRound(context.Background(), ffs, "", false)
	if err != nil {
		return nil, fmt.Errorf("core: partial campaign: %w", err)
	}
	return res, nil
}

// FeatureRows returns the feature matrix as plain rows (aliased, callers
// must not modify).
func (s *Study) FeatureRows() [][]float64 { return s.Features.Rows }

// FDR returns the ground-truth targets; it fails if RunGroundTruth has not
// completed.
func (s *Study) FDR() ([]float64, error) {
	if s.Campaign == nil {
		return nil, fmt.Errorf("core: ground truth not computed; call RunGroundTruth")
	}
	return s.Campaign.FDR, nil
}

// splits is the preamble of every stratified protocol on the ground truth:
// the targets and nSplits stratified shuffle splits of them at trainFrac.
func (s *Study) splits(nSplits int, trainFrac float64, seed int64) ([]float64, []ml.Split, error) {
	y, err := s.FDR()
	if err != nil {
		return nil, nil, err
	}
	splits, err := ml.StratifiedShuffleSplits(y, nSplits, trainFrac, PaperStratifyBins, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("core: stratified splits: %w", err)
	}
	return y, splits, nil
}

// EstimateResult is one execution of the Fig. 1 flow on a single split:
// fault injection on the training flip-flops, model training, prediction of
// the remaining flip-flops.
type EstimateResult struct {
	TrainIdx, TestIdx    []int
	TrainTrue, TrainPred []float64
	TestTrue, TestPred   []float64
}

// EstimateFDR runs the paper's flow once: draw a stratified training subset
// of the given fraction, train the model on those flip-flops' FDR, and
// predict every remaining flip-flop. It reads the training FDR from the
// ground truth, which must be available, rather than running a partial
// campaign: by planFor's subset rule a partial campaign over the subset
// measures exactly the ground truth's counts for it.
func (s *Study) EstimateFDR(factory ml.Factory, trainFrac float64, seed int64) (*EstimateResult, error) {
	y, splits, err := s.splits(1, trainFrac, seed)
	if err != nil {
		return nil, err
	}
	sp := splits[0]
	X := s.FeatureRows()
	trX, trY := ml.Gather(X, y, sp.Train)
	teX, teY := ml.Gather(X, y, sp.Test)
	model := factory()
	if err := model.Fit(trX, trY); err != nil {
		return nil, fmt.Errorf("core: estimate fit: %w", err)
	}
	return &EstimateResult{
		TrainIdx:  sp.Train,
		TestIdx:   sp.Test,
		TrainTrue: trY,
		TrainPred: ml.PredictAll(model, trX),
		TestTrue:  teY,
		TestPred:  ml.PredictAll(model, teX),
	}, nil
}
