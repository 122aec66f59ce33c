package fabric

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// Campaign is a materialized campaign spec: everything one node needs to
// simulate chunks of the plan or record their results. Coordinator and
// workers each build their own from the same spec; the fingerprints prove
// they agree.
type Campaign struct {
	// Spec is the fully resolved spec (defaults filled in).
	Spec api.CampaignSpec
	// M is the materialized corpus scenario (program, bench, golden trace,
	// snapshots).
	M *corpus.Materialized
	// Jobs is the deterministic injection plan.
	Jobs []fault.Job
	// Plan is Jobs prepared once on this node's runner, over M's golden
	// trace and snapshots: a worker runs every lease on it, the coordinator
	// opens its ledger on it, geometry and fingerprints are read off it.
	Plan *fault.Plan
}

// ResolveSpec validates a campaign spec and fills every default — scale,
// materialization seed, injection budget, campaign seed, chunk size — so a
// worker can rebuild the identical campaign from the wire copy alone.
func ResolveSpec(spec api.CampaignSpec) (api.CampaignSpec, error) {
	sc, err := corpus.Find(spec.Scenario)
	if err != nil {
		return spec, err
	}
	spec.Scenario, spec.Seed = sc.ID(), corpus.ResolveSeed(spec.Seed)
	if spec.Scale == "" {
		spec.Scale = corpus.ScaleSmall.String()
	}
	if _, err := corpus.ParseScale(spec.Scale); err != nil {
		return spec, err
	}
	g, err := sc.Campaign(spec.InjectionsPerFF, spec.CampaignSeed)
	if err != nil {
		return spec, fmt.Errorf("fabric: %w", err)
	}
	spec.InjectionsPerFF, spec.CampaignSeed = g.InjectionsPerFF, g.CampaignSeed
	if spec.ChunkJobs < 0 {
		return spec, fmt.Errorf("fabric: negative chunk size %d", spec.ChunkJobs)
	}
	if spec.ChunkJobs == 0 {
		spec.ChunkJobs = fault.DefaultChunkJobs
	}
	model, err := fault.ParseModel(spec.FaultModel)
	if err != nil {
		return spec, fmt.Errorf("fabric: %v", err)
	}
	spec.FaultModel = model.String()
	if len(spec.Harden) > 0 {
		sorted := append([]int(nil), spec.Harden...)
		sort.Ints(sorted)
		dedup := sorted[:0]
		for i, ff := range sorted {
			if ff < 0 {
				return spec, fmt.Errorf("fabric: negative harden index %d", ff)
			}
			if i > 0 && ff == sorted[i-1] {
				continue
			}
			dedup = append(dedup, ff)
		}
		// Range validation against the actual FF count happens at
		// materialization time; here the spec is canonicalized so equal
		// selections serialize identically.
		spec.Harden = dedup
	}
	return spec, nil
}

// BuildCampaign materializes a spec into a prepared campaign. The spec is
// the campaign's identity — model, chunk size, golden trace and snapshots
// come from it — and local adds what is this node's alone and
// never changes results: pool bound, checkpointing, instrumentation. Two
// nodes building the same spec get fingerprint-identical plans and golden
// traces.
func BuildCampaign(spec api.CampaignSpec, local fault.RunnerConfig) (*Campaign, error) {
	spec, err := ResolveSpec(spec)
	if err != nil {
		return nil, err
	}
	sc, err := corpus.Find(spec.Scenario)
	if err != nil {
		return nil, err
	}
	scale, err := corpus.ParseScale(spec.Scale)
	if err != nil {
		return nil, err
	}
	var rewrite func(*netlist.Netlist) error
	if len(spec.Harden) > 0 {
		harden := spec.Harden
		rewrite = func(nl *netlist.Netlist) error {
			return circuit.ApplyTMR(nl, harden)
		}
	}
	m, err := sc.MaterializeWith(scale, spec.Seed, rewrite)
	if err != nil {
		return nil, err
	}
	model, err := fault.ParseModel(spec.FaultModel)
	if err != nil {
		return nil, fmt.Errorf("fabric: %v", err)
	}
	jobs := m.Jobs(model, spec.InjectionsPerFF, spec.CampaignSeed)
	local.Model, local.ChunkJobs = model, spec.ChunkJobs
	runner, err := m.Runner(local)
	if err != nil {
		return nil, err
	}
	plan, err := runner.Prepare(jobs)
	if err != nil {
		return nil, err
	}
	return &Campaign{Spec: spec, M: m, Jobs: jobs, Plan: plan}, nil
}

// PlanHashHex and GoldenHashHex are the wire encodings of the fingerprints.
func (c *Campaign) PlanHashHex() string {
	h, _ := c.Plan.Hashes()
	return h.String()
}

func (c *Campaign) GoldenHashHex() string {
	_, h := c.Plan.Hashes()
	return h.String()
}

// SingleNodeFingerprint simulates every chunk of the campaign in this
// process, records them in a ledger as a coordinator would, and returns the
// checkpoint fingerprint a distributed run of the same spec must reach: the
// reference of the fabric tests, cmd/ffr's smoke and Example_distributed.
func (c *Campaign) SingleNodeFingerprint(ctx context.Context) (uint64, error) {
	ledger, err := c.Plan.OpenLedger()
	if err != nil {
		return 0, err
	}
	done, err := c.Plan.RunChunks(ctx, ledger.Pending())
	if err != nil {
		return 0, err
	}
	for ci, masks := range done {
		if _, err := ledger.Add(ci, masks); err != nil {
			return 0, err
		}
	}
	return ledger.Fingerprint(), nil
}

// CheckAgainst verifies this campaign matches a coordinator's join
// response; a mismatch means the two nodes materialized different
// campaigns (diverged code, corpus or spec) and the worker must not
// contribute masks.
func (c *Campaign) CheckAgainst(join api.JoinResponse) error {
	if got := c.PlanHashHex(); got != join.PlanHash {
		return fmt.Errorf("fabric: plan fingerprint mismatch: local %s, coordinator %s", got, join.PlanHash)
	}
	if got := c.GoldenHashHex(); got != join.GoldenHash {
		return fmt.Errorf("fabric: golden-trace fingerprint mismatch: local %s, coordinator %s", got, join.GoldenHash)
	}
	if pl := c.Plan; pl.TotalJobs() != join.TotalJobs || pl.ChunkJobs() != join.ChunkJobs ||
		pl.NumChunks() != join.NumChunks {
		return fmt.Errorf("fabric: shard geometry mismatch: local %d/%d/%d, coordinator %d/%d/%d",
			pl.TotalJobs(), pl.ChunkJobs(), pl.NumChunks(),
			join.TotalJobs, join.ChunkJobs, join.NumChunks)
	}
	return nil
}
