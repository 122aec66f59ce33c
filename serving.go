package repro

import (
	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/fabric"
	"repro/internal/harden"
	"repro/internal/serve"
)

// Serving and distributed-fabric re-exports. Like the core facade in
// ffr.go, these alias the internal packages so embedders get the full API
// surface — a prediction service, its typed HTTP client, and the
// coordinator/worker campaign fabric — without importing internal paths.
type (
	// PredictionServer serves trained model artifacts over HTTP with
	// response caching, per-model admission control and hot reload (the
	// ffr serve engine).
	PredictionServer = serve.Server
	// PredictionServerConfig assembles a PredictionServer.
	PredictionServerConfig = serve.Config
	// ModelRegistry is the named, hot-reloadable artifact set a
	// PredictionServer serves from; it may be shared across servers.
	ModelRegistry = serve.Registry

	// APIClient is the typed HTTP client for the /v1 serving surface.
	APIClient = api.Client
	// APIError is the structured error envelope ({code, message, detail})
	// every non-2xx response carries.
	APIError = api.Error
	// PredictRequest is the body of POST /v1/predict.
	PredictRequest = api.PredictRequest
	// PredictResponse is the success body of POST /v1/predict.
	PredictResponse = api.PredictResponse
	// ServedModelInfo is one GET /v1/models entry.
	ServedModelInfo = api.ModelInfo
	// ReloadRequest is the body of POST /v1/models/reload.
	ReloadRequest = api.ReloadRequest
	// ReloadResponse is the success body of POST /v1/models/reload.
	ReloadResponse = api.ReloadResponse

	// DistributedCampaignSpec deterministically identifies a corpus
	// campaign on the wire; every node materializes the identical plan,
	// golden trace and shard geometry from it.
	DistributedCampaignSpec = api.CampaignSpec
	// FabricCoordinator leases campaign chunks to workers, heals crashed
	// workers by lease expiry, lets idle workers steal stragglers, and
	// merges results into the standard checkpoint bit-identically to a
	// single-node run.
	FabricCoordinator = fabric.Coordinator
	// FabricCoordinatorConfig assembles a FabricCoordinator.
	FabricCoordinatorConfig = fabric.CoordinatorConfig
	// FabricWorker simulates leased chunks against a coordinator.
	FabricWorker = fabric.Worker
	// FabricWorkerConfig assembles a FabricWorker.
	FabricWorkerConfig = fabric.WorkerConfig
	// FabricClient is the typed HTTP client for the /v1/fabric protocol.
	FabricClient = fabric.Client
	// FabricStatus is a point-in-time coordinator status snapshot.
	FabricStatus = api.FabricStatus
	// DistributedCampaign is a materialized campaign: circuit, jobs,
	// shards, runner and the plan/golden fingerprints workers verify
	// against at join time.
	DistributedCampaign = fabric.Campaign

	// HardenPlan is a selective-TMR hardening decision: the ordered
	// flip-flop set that fits an area budget plus the predicted residual
	// FFR at every budget point (the ffr harden engine).
	HardenPlan = harden.Plan
	// HardenCandidate is one flip-flop of the criticality ranking (score
	// descending, ties by flip-flop index).
	HardenCandidate = harden.Candidate
	// HardenBudgetPoint is one point of the budget-vs-residual curve.
	HardenBudgetPoint = harden.BudgetPoint
	// HardenVerification reports measured vs. predicted residual FFR
	// after TMR-rewriting and re-running the campaign.
	HardenVerification = harden.Verification
	// HardenRequest is the body of POST /v1/harden.
	HardenRequest = api.HardenRequest
	// HardenResponse is the success body of POST /v1/harden.
	HardenResponse = api.HardenResponse
)

// Structured API error codes (the "code" field of the error envelope).
const (
	APICodeBadRequest  = api.CodeBadRequest
	APICodeNotFound    = api.CodeNotFound
	APICodeOverloaded  = api.CodeOverloaded
	APICodeUnavailable = api.CodeUnavailable
	APICodeConflict    = api.CodeConflict
	APICodeInternal    = api.CodeInternal
)

// Serving and fabric constructors.
var (
	// NewPredictionServer builds a prediction service from its config.
	NewPredictionServer = serve.New
	// NewModelRegistry builds an empty hot-reloadable model registry.
	NewModelRegistry = serve.NewRegistry
	// NewAPIClient builds a typed client for a serving base URL.
	NewAPIClient = api.NewClient
	// NewFabricCoordinator builds (or resumes) a campaign coordinator.
	NewFabricCoordinator = fabric.NewCoordinator
	// NewFabricWorker builds a campaign worker.
	NewFabricWorker = fabric.NewWorker
	// NewFabricClient builds a typed client for a coordinator base URL.
	NewFabricClient = fabric.NewClient
	// BuildDistributedCampaign materializes a campaign spec locally.
	BuildDistributedCampaign = fabric.BuildCampaign
	// ResolveDistributedCampaignSpec fills a spec's scenario defaults.
	ResolveDistributedCampaignSpec = fabric.ResolveSpec

	// HardenAdvise scores a materialized scenario with a model artifact
	// and plans the TMR set that fits the area budget.
	HardenAdvise = harden.Advise
	// HardenVerify re-measures a plan by two distributed-campaign specs
	// run locally: the spec hardened with the plan's selection (residual
	// FFR) and the spec as given (the unhardened baseline).
	HardenVerify = harden.Verify
	// HardenNewPlan fills a budget with a prefix of a candidate ranking.
	HardenNewPlan = harden.NewPlan
	// HardenWriteCSV renders a plan's full ranking as CSV.
	HardenWriteCSV = harden.WriteCSV
	// HardenApplyTMR rewrites selected flip-flops to TMR (two replicas
	// plus a majority voter) in place; fault-free behavior is preserved
	// bit-identically.
	HardenApplyTMR = circuit.ApplyTMR
	// HardenTMRCost is the area cost of TMR-hardening one flip-flop type,
	// in gate-equivalent units.
	HardenTMRCost = circuit.TMRCost
)

// ErrNoModelsLoaded reports a prediction server with an empty registry.
var ErrNoModelsLoaded = serve.ErrNoModels
