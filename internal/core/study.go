package core

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

// StudyConfig assembles one end-to-end study.
type StudyConfig struct {
	// MAC is the device-under-test configuration.
	MAC circuit.MACConfig
	// Bench is the testbench workload.
	Bench circuit.MACBenchConfig
	// InjectionsPerFF is the flat-campaign budget (the paper uses 170).
	InjectionsPerFF int
	// CampaignSeed drives injection-time sampling.
	CampaignSeed int64
	// Model selects the campaign fault model (see fault.Model); the zero
	// value is the paper's SEU reference model. Studies require an
	// FF-targeted model — SEU, MBU, stuck-at, optionally windowed — because
	// the estimation flow regresses per-flip-flop features onto per-target
	// FDR; SET targets combinational cells and is rejected (run SET
	// campaigns directly via fault.RunJobs).
	Model fault.Model
	// Workers bounds campaign parallelism (0 = GOMAXPROCS).
	Workers int
	// CheckStats includes the statistics readout in the failure
	// criterion (see fault.MACClassifier).
	CheckStats bool

	// Campaign runtime knobs (see fault.RunnerConfig).

	// ChunkJobs is the shard chunk size for the ground-truth campaign;
	// 0 uses the runner default.
	ChunkJobs int
	// Shards, when positive, overrides ChunkJobs by splitting the
	// ground-truth plan into about this many equal shard chunks. The
	// derived chunk size is rounded up to whole 64-lane batches, so the
	// actual chunk count can be lower than requested; resuming a
	// checkpoint requires the same shard geometry.
	Shards int
	// Checkpoint enables periodic campaign checkpointing to this file.
	Checkpoint string
	// Resume restarts an interrupted ground-truth campaign from
	// Checkpoint instead of from scratch.
	Resume bool
	// CheckpointEvery is the number of completed chunks between
	// checkpoint flushes (0 = runner default).
	CheckpointEvery int
	// Progress, when non-nil, receives campaign progress updates.
	Progress func(fault.Progress)
	// SnapshotEvery is the golden-snapshot cadence in cycles (0 =
	// sim.DefaultSnapshotEvery). The cadence never changes results, only
	// how much prefix a faulty batch can skip and how often early exit is
	// checked.
	SnapshotEvery int
	// Metrics optionally receives the ffr_campaign_* metric families of
	// every campaign this study runs (ground truth and partial); nil
	// disables campaign metrics.
	Metrics *obs.Registry
	// Logger optionally receives structured campaign records; nil
	// disables logging.
	Logger *obs.Logger
}

// DefaultStudyConfig reproduces the paper's setup: the 1054-FF circuit and
// 170 injections per flip-flop.
func DefaultStudyConfig() StudyConfig {
	return StudyConfig{
		MAC:             circuit.DefaultMACConfig(),
		Bench:           circuit.DefaultMACBenchConfig(),
		InjectionsPerFF: 170,
		CampaignSeed:    2019, // DSN 2019
		CheckStats:      true,
	}
}

// Study is a materialized experiment context: the synthesized netlist, its
// compiled simulation program, the testbench, extracted features, and —
// after RunGroundTruth — the per-flip-flop FDR reference.
//
// Two constructors produce studies: NewStudy builds the paper's MAC
// loopback flow (Bench is then the compiled MAC testbench), and
// NewCorpusStudy materializes any registered corpus scenario (Bench is nil;
// the workload is reachable through Stim/Monitors/ActiveCycles). Every
// method works identically on both.
type Study struct {
	Config   StudyConfig
	Netlist  *netlist.Netlist
	Program  *sim.Program
	Bench    *circuit.MACBench // MAC studies only; nil for corpus studies
	Activity *sim.Activity
	Features *features.Matrix

	// CircuitName and WorkloadName tag the scenario this study measures
	// ("mac10ge"/"loopback" for NewStudy); they flow into saved model
	// artifacts so the prediction service can tell models apart.
	CircuitName  string
	WorkloadName string

	// Ground truth, populated by RunGroundTruth.
	Campaign *fault.Result

	classifier   fault.Classifier
	golden       *sim.Trace
	snapshots    *sim.Snapshots
	runner       *fault.Runner
	stim         *sim.Stimulus
	monitors     []int
	activeCycles int
}

// NewStudy builds the device, synthesizes it, compiles the simulator,
// builds the testbench, runs the golden simulation (capturing activity) and
// extracts all per-flip-flop features. It does not run the fault campaign;
// call RunGroundTruth for the reference FDR data.
func NewStudy(cfg StudyConfig) (*Study, error) {
	if err := validateStudyModel(cfg.Model); err != nil {
		return nil, err
	}
	nl, err := circuit.NewMAC10GE(cfg.MAC)
	if err != nil {
		return nil, fmt.Errorf("core: building circuit: %w", err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		return nil, fmt.Errorf("core: synthesis: %w", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		return nil, fmt.Errorf("core: compiling simulator: %w", err)
	}
	cfg.Bench.FIFODepth = cfg.MAC.FIFODepth
	bench, err := circuit.BuildMACBench(p, cfg.Bench)
	if err != nil {
		return nil, fmt.Errorf("core: building testbench: %w", err)
	}

	// The one golden run yields the reference trace, the activity
	// statistics and the periodic engine-state snapshots faulty batches
	// fast-forward from.
	engine := sim.NewEngine(p)
	snaps := sim.NewSnapshots(p, bench.Stim, cfg.SnapshotEvery)
	golden, act := sim.Run(engine, bench.Stim, sim.RunConfig{
		Monitors:        bench.Monitors,
		CollectActivity: true,
		Snapshots:       snaps,
	})

	ex, err := features.NewExtractor(nl)
	if err != nil {
		return nil, fmt.Errorf("core: feature extraction: %w", err)
	}
	fm, err := ex.Extract(act)
	if err != nil {
		return nil, fmt.Errorf("core: feature extraction: %w", err)
	}

	classifier := fault.NewMACClassifier(bench, cfg.CheckStats)
	chunkJobs := chunkJobsFor(p.NumFFs()*cfg.InjectionsPerFF, cfg.Shards, cfg.ChunkJobs)
	// The ground-truth runner reuses the study's golden trace and
	// snapshots across all shards and calls instead of re-simulating them
	// per campaign.
	runner, err := fault.NewRunner(p, bench.Stim, bench.Monitors, classifier, fault.RunnerConfig{
		Model:           cfg.Model,
		ChunkJobs:       chunkJobs,
		Workers:         cfg.Workers,
		Golden:          golden,
		Snapshots:       snaps,
		CheckpointPath:  cfg.Checkpoint,
		CheckpointEvery: cfg.CheckpointEvery,
		Resume:          cfg.Resume,
		OnProgress:      cfg.Progress,
		Metrics:         cfg.Metrics,
		Logger:          cfg.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("core: campaign runner: %w", err)
	}

	return &Study{
		Config:       cfg,
		Netlist:      nl,
		Program:      p,
		Bench:        bench,
		Activity:     act,
		Features:     fm,
		CircuitName:  "mac10ge",
		WorkloadName: "loopback",
		classifier:   classifier,
		golden:       golden,
		snapshots:    snaps,
		runner:       runner,
		stim:         bench.Stim,
		monitors:     bench.Monitors,
		activeCycles: bench.ActiveCycles,
	}, nil
}

// validateStudyModel enforces the studies' FF-targeted model requirement.
func validateStudyModel(m fault.Model) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("core: study fault model: %w", err)
	}
	if !m.TargetsFFs() {
		return fmt.Errorf("core: study fault model %q targets combinational cells; "+
			"studies need an FF-targeted model (per-FF features cannot describe comb targets) — "+
			"run SET campaigns directly via fault.RunJobs", m)
	}
	return nil
}

// chunkJobsFor derives the runner chunk size: a requested shard count
// splits the full plan into about that many equal chunks (rounded up to
// whole 64-lane batches by the runner); otherwise the explicit chunk size
// passes through. Both study constructors share this policy so the same
// -shards flag shards MAC and corpus campaigns identically.
func chunkJobsFor(totalJobs, shards, chunkJobs int) int {
	if shards > 0 {
		return (totalJobs + shards - 1) / shards
	}
	return chunkJobs
}

// NumFFs returns the number of flip-flops under study.
func (s *Study) NumFFs() int { return s.Program.NumFFs() }

// ScenarioID returns the "circuit/workload" tag of the study.
func (s *Study) ScenarioID() string { return s.CircuitName + "/" + s.WorkloadName }

// Stim returns the workload stimulus.
func (s *Study) Stim() *sim.Stimulus { return s.stim }

// ActiveCycles returns the injection window [0, ActiveCycles).
func (s *Study) ActiveCycles() int { return s.activeCycles }

// GoldenTrace returns the fault-free reference trace every campaign of this
// study classifies against.
func (s *Study) GoldenTrace() *sim.Trace { return s.golden }

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
	cfg := fault.CampaignConfig{
		Model:           s.Config.Model,
		InjectionsPerFF: s.Config.InjectionsPerFF,
		ActiveCycles:    s.activeCycles,
		Seed:            s.Config.CampaignSeed,
		Workers:         s.Config.Workers,
	}
	if err := cfg.Validate(s.stim.Cycles()); err != nil {
		return nil, fmt.Errorf("core: ground-truth campaign: %w", err)
	}
	jobs := fault.NewModelPlan(cfg.Model, s.NumFFs(), cfg.InjectionsPerFF, cfg.ActiveCycles, cfg.Seed)
	res, err := s.runner.RunContext(ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("core: ground-truth campaign: %w", err)
	}
	s.Campaign = res
	return res, nil
}

// ephemeralRunnerConfig is the configuration of every campaign the study
// runs besides its ground truth: the study's fault model, worker bound and
// instrumentation on the study's golden trace and snapshots, so
// nothing is re-simulated per campaign. Callers add what is theirs alone
// (chunk geometry, checkpointing, progress).
func (s *Study) ephemeralRunnerConfig() fault.RunnerConfig {
	return fault.RunnerConfig{
		Model:     s.Config.Model,
		Workers:   s.Config.Workers,
		Golden:    s.golden,
		Snapshots: s.snapshots,
		Metrics:   s.Config.Metrics,
		Logger:    s.Config.Logger,
	}
}

// RunPartialCampaign fault-injects only the given flip-flops — the flow's
// cost-saving mode: the training subset is measured, the rest predicted.
// Partial plans run on an ephemeral uncheckpointed runner (their plan
// fingerprint differs from the ground truth's) but still reuse the study's
// golden trace and snapshots.
func (s *Study) RunPartialCampaign(ffs []int) (*fault.Result, error) {
	res, err := fault.RunJobs(s.Program, s.stim, s.monitors, s.classifier, s.planFor(ffs),
		s.ephemeralRunnerConfig())
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

// MaskFeatureGroups returns a copy of the feature rows keeping only the
// columns of the requested groups (ablation studies).
func (s *Study) MaskFeatureGroups(keep ...features.Group) [][]float64 {
	groups := features.Groups()
	var cols []int
	for j, g := range groups {
		for _, k := range keep {
			if g == k {
				cols = append(cols, j)
				break
			}
		}
	}
	out := make([][]float64, len(s.Features.Rows))
	for i, row := range s.Features.Rows {
		r := make([]float64, len(cols))
		for k, j := range cols {
			r[k] = row[j]
		}
		out[i] = r
	}
	return out
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
// of the given fraction, run the (partial) campaign for those flip-flops,
// train the model on their measured FDR, and predict every remaining
// flip-flop. The ground truth must be available for evaluation.
func (s *Study) EstimateFDR(factory ml.Factory, trainFrac float64, seed int64) (*EstimateResult, error) {
	y, err := s.FDR()
	if err != nil {
		return nil, err
	}
	splits, err := ml.StratifiedShuffleSplits(y, 1, trainFrac, 10, seed)
	if err != nil {
		return nil, fmt.Errorf("core: estimate split: %w", err)
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
