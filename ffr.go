package repro

import (
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/persist"
	"repro/internal/plan"
)

// Re-exported domain types. The facade aliases the internal types, so an
// aliased type's methods and fields come with it; it names only what the
// walkthroughs in this package's examples use.
type (
	// Study is a materialized experiment: circuit, testbench, features
	// and (after RunGroundTruth) the per-flip-flop FDR reference.
	Study = core.Study
	// CampaignRunnerConfig parameterizes the campaign runtime.
	CampaignRunnerConfig = fault.RunnerConfig
	// CorpusStudyConfig assembles a study from a corpus scenario.
	CorpusStudyConfig = core.CorpusStudyConfig
	// AdaptiveStudyConfig assembles an adaptive campaign over a study: the
	// planner's configuration, with the study as its target.
	AdaptiveStudyConfig = core.AdaptiveConfig
	// AdaptiveRound reports one completed planner round.
	AdaptiveRound = plan.Round
)

// CorpusScaleSmall is the reduced circuit/workload size of a scenario.
const CorpusScaleSmall = corpus.ScaleSmall

// Paper protocol constants (Section IV-B).
const (
	PaperCVSplits   = core.PaperCVSplits
	PaperTrainFrac  = core.PaperTrainFrac
	PaperInjections = core.PaperInjections
)

// Re-exported constructors and helpers.
var (
	// NewStudy builds a study (without running the fault campaign).
	NewStudy = core.NewStudy
	// DefaultStudyConfig is the paper-fidelity configuration: the
	// 1054-flip-flop MAC and PaperInjections per flip-flop.
	DefaultStudyConfig = core.DefaultStudyConfig
	// PaperModels returns the Table I models with paper hyperparameters.
	PaperModels = core.PaperModels
	// ExtendedModels returns the future-work models of Section V.
	ExtendedModels = core.ExtendedModels
	// FindModel resolves a model spec by Table I name.
	FindModel = core.FindModel
	// PaperLearningFracs are the Fig. 2b-4b training fractions.
	PaperLearningFracs = core.PaperLearningFracs
	// RenderTable1 writes Table I in the paper's layout.
	RenderTable1 = core.RenderTable1
	// FeatureNames is the canonical feature schema (the order every
	// study feature matrix and saved artifact uses).
	FeatureNames = features.Names
	// NewModelArtifact assembles an artifact around a fitted model.
	NewModelArtifact = persist.New
	// SaveModel atomically writes a model artifact
	// (train once, predict forever).
	SaveModel = persist.Save
	// LoadModel reads and validates a model artifact; the loaded model
	// predicts bit-identically to the saved instance.
	LoadModel = persist.Load
	// ModelDataFingerprint digests a training set for artifact
	// provenance.
	ModelDataFingerprint = persist.DataFingerprint
	// FindCorpusScenario resolves "family/workload" (or "family" for the
	// family's first workload).
	FindCorpusScenario = corpus.Find
	// NewCorpusStudy materializes a corpus scenario into a Study.
	NewCorpusStudy = core.NewCorpusStudy
	// NewAdaptiveStudy wires the active-learning campaign planner (train →
	// score disagreement → inject → retrain) onto a study.
	NewAdaptiveStudy = core.NewAdaptiveStudy
	// AdaptiveStrategyNames lists every built-in acquisition strategy.
	AdaptiveStrategyNames = plan.StrategyNames
	// CrossCircuit measures FDR-model transfer across a set of studies.
	CrossCircuit = core.CrossCircuit
	// RenderTransferMatrix writes the R² and Kendall-τ transfer matrices.
	RenderTransferMatrix = core.RenderTransferMatrix
)

// ErrCampaignBudget reports a negative injection budget, whichever entry
// point it was handed to (NewCorpusStudy, or a distributed campaign spec,
// which HardenVerify takes too); zero means the scenario's default. Match
// it with errors.Is.
var ErrCampaignBudget = corpus.ErrBudget
