package repro

import (
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/persist"
	"repro/internal/plan"
)

// Re-exported domain types. The facade intentionally aliases the internal
// types so the whole internal API surface (methods, fields) is available
// through the public package without duplication.
type (
	// Study is a materialized experiment: circuit, testbench, features
	// and (after RunGroundTruth) the per-flip-flop FDR reference.
	Study = core.Study
	// StudyConfig assembles a study.
	StudyConfig = core.StudyConfig
	// ModelSpec names a regression model with its paper configuration.
	ModelSpec = core.ModelSpec
	// TableRow is one Table I row.
	TableRow = core.TableRow
	// EstimateResult is one run of the Fig. 1 estimation flow.
	EstimateResult = core.EstimateResult
	// BudgetPoint is one injection-budget ablation measurement.
	BudgetPoint = core.BudgetPoint
	// SearchOutcome reports a hyperparameter search.
	SearchOutcome = core.SearchOutcome
	// MACConfig parameterizes the device under test.
	MACConfig = circuit.MACConfig
	// MACBenchConfig parameterizes the testbench workload.
	MACBenchConfig = circuit.MACBenchConfig
	// CampaignRunner is the sharded, checkpointable campaign runtime.
	CampaignRunner = fault.Runner
	// CampaignRunnerConfig parameterizes a CampaignRunner.
	CampaignRunnerConfig = fault.RunnerConfig
	// CampaignProgress is a point-in-time view of a running campaign.
	CampaignProgress = fault.Progress
	// CampaignResult is the outcome of a fault-injection campaign.
	CampaignResult = fault.Result
	// CampaignCheckpoint is the on-disk state of a partial campaign.
	CampaignCheckpoint = fault.Checkpoint
	// FaultModel selects what a campaign injects (SEU, MBU, stuck-at,
	// SET) and when (injection window); the zero value is the paper's
	// single-bit SEU over the full active phase.
	FaultModel = fault.Model
	// Regressor is the supervised regression contract every model
	// implements; Predict is safe for concurrent use after Fit.
	Regressor = ml.Regressor
	// ModelArtifact is a fitted model plus its serving metadata (feature
	// schema, training fingerprint, CV metrics, scenario tags) — the unit
	// the artifact store persists and ffr serve loads.
	ModelArtifact = persist.Artifact
	// CorpusEntry is one DUT family of the circuit corpus.
	CorpusEntry = corpus.Entry
	// CorpusWorkload is one testbench variant of a DUT family.
	CorpusWorkload = corpus.Workload
	// CorpusScenario is a (family, workload) pair — the unit of the
	// corpus, identified as "family/workload".
	CorpusScenario = corpus.Scenario
	// CorpusScale selects the circuit/workload size of a scenario.
	CorpusScale = corpus.Scale
	// CorpusStudyConfig assembles a study from a corpus scenario.
	CorpusStudyConfig = core.CorpusStudyConfig
	// TransferMatrix is the cross-circuit generalization experiment
	// result: train-on-row, predict-on-column scores.
	TransferMatrix = core.TransferMatrix
	// TransferCell is one (train → test) transfer measurement.
	TransferCell = core.TransferCell
	// AdaptiveStudyConfig assembles an adaptive campaign over a study: the
	// planner's configuration, with the study as its target.
	AdaptiveStudyConfig = core.AdaptiveConfig
	// AdaptiveRound reports one completed planner round.
	AdaptiveRound = plan.Round
	// AdaptiveResult is the outcome of an adaptive campaign.
	AdaptiveResult = plan.Result
	// AdaptiveOutcome is one strategy's result in an adaptive-vs-full
	// comparison.
	AdaptiveOutcome = core.AdaptiveOutcome
	// AdaptiveComparison is the CompareAdaptiveStrategies result.
	AdaptiveComparison = core.AdaptiveComparison
	// AcquisitionStrategy picks where an adaptive campaign injects next.
	AcquisitionStrategy = plan.Strategy
)

// Acquisition strategy names (see plan.New): the random control and
// committee disagreement across the model zoo.
const (
	StrategyRandom    = plan.StrategyRandom
	StrategyCommittee = plan.StrategyCommittee
)

// Corpus scales.
const (
	CorpusScaleSmall   = corpus.ScaleSmall
	CorpusScaleDefault = corpus.ScaleDefault
)

// Paper protocol constants (Section IV-B).
const (
	PaperCVSplits   = core.PaperCVSplits
	PaperTrainFrac  = core.PaperTrainFrac
	PaperInjections = 170
)

// Re-exported constructors and helpers.
var (
	// NewStudy builds a study (without running the fault campaign).
	NewStudy = core.NewStudy
	// DefaultStudyConfig is the paper-fidelity configuration: the
	// 1054-flip-flop MAC and 170 injections per flip-flop.
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
	// RenderLearningCurve writes a Fig. 2b/3b/4b series.
	RenderLearningCurve = core.RenderLearningCurve
	// RenderFoldPrediction summarizes a Fig. 2a/3a/4a fold.
	RenderFoldPrediction = core.RenderFoldPrediction
	// RenderCampaign summarizes the flat fault-injection campaign.
	RenderCampaign = core.RenderCampaign
	// LoadCampaignCheckpoint reads and validates a campaign checkpoint.
	LoadCampaignCheckpoint = fault.LoadCheckpoint
	// ParseFaultModel parses a canonical fault-model string
	// ("seu", "mbu:3", "stuck0:8@0.25-0.75", "set", ...).
	ParseFaultModel = fault.ParseModel
	// FaultModelKinds lists every fault-model kind name.
	FaultModelKinds = fault.ModelKinds
	// ModelNames lists every resolvable model name.
	ModelNames = core.ModelNames
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
	// CorpusFamilies lists every registered DUT family.
	CorpusFamilies = corpus.Families
	// CorpusScenarios enumerates every registered (family, workload) pair.
	CorpusScenarios = corpus.List
	// CorpusScenarioIDs lists every scenario identifier.
	CorpusScenarioIDs = corpus.IDs
	// FindCorpusScenario resolves "family/workload" (or "family" for the
	// family's first workload).
	FindCorpusScenario = corpus.Find
	// RegisterCorpusEntry adds a DUT family to the corpus.
	RegisterCorpusEntry = corpus.Register
	// ParseCorpusScale resolves a -scale flag value (small, default).
	ParseCorpusScale = corpus.ParseScale
	// NewCorpusStudy materializes a corpus scenario into a Study.
	NewCorpusStudy = core.NewCorpusStudy
	// NewAdaptiveStudy wires the active-learning campaign planner (train →
	// score disagreement → inject → retrain) onto a study.
	NewAdaptiveStudy = core.NewAdaptiveStudy
	// AdaptiveStrategyNames lists every built-in acquisition strategy.
	AdaptiveStrategyNames = plan.StrategyNames
	// CommitteeMembers is the named model zoo the committee strategy
	// measures disagreement across.
	CommitteeMembers = core.CommitteeMembers
	// CrossCircuit measures FDR-model transfer across a set of studies.
	CrossCircuit = core.CrossCircuit
	// RenderTransferMatrix writes the R² and Kendall-τ transfer matrices.
	RenderTransferMatrix = core.RenderTransferMatrix
)

// Campaign errors, matchable with errors.Is.
var (
	// ErrCampaignInterrupted reports a campaign stopped by cancellation
	// after flushing its checkpoint.
	ErrCampaignInterrupted = fault.ErrInterrupted
	// ErrCampaignBudget reports a negative injection budget, whichever
	// entry point it was handed to (NewCorpusStudy, or a distributed
	// campaign spec, which HardenVerify takes too); zero means the
	// scenario's default.
	ErrCampaignBudget = corpus.ErrBudget
)
