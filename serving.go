package repro

import (
	"repro/internal/api"
	"repro/internal/fabric"
	"repro/internal/harden"
)

// Distributed-fabric and hardening re-exports. Like the core facade in
// ffr.go, these alias the internal packages the walkthroughs reach.
type (
	// DistributedCampaignSpec deterministically identifies a corpus
	// campaign on the wire; every node materializes the identical plan,
	// golden trace and shard geometry from it.
	DistributedCampaignSpec = api.CampaignSpec
	// FabricCoordinatorConfig assembles a campaign coordinator, which
	// leases chunks to workers and merges their results into the standard
	// checkpoint bit-identically to a single-node run.
	FabricCoordinatorConfig = fabric.CoordinatorConfig
	// FabricWorkerConfig assembles a worker that simulates leased chunks
	// against a coordinator.
	FabricWorkerConfig = fabric.WorkerConfig
)

// Fabric and hardening constructors.
var (
	// NewFabricCoordinator builds (or resumes) a campaign coordinator.
	NewFabricCoordinator = fabric.NewCoordinator
	// NewFabricWorker builds a campaign worker.
	NewFabricWorker = fabric.NewWorker
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
)
