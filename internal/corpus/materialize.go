package corpus

import (
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Materialized is a scenario carried through the front half of the Fig. 1
// flow: generated and synthesized netlist, compiled simulator, compiled
// workload, golden trace with activity, and the extracted per-flip-flop
// feature matrix. It holds everything a fault campaign or a study needs;
// the golden trace is computed once here and reused by every downstream
// consumer (runner shards, classifiers, feature extraction).
type Materialized struct {
	Scenario Scenario
	Scale    Scale
	Seed     int64

	Netlist  *netlist.Netlist
	Program  *sim.Program
	Bench    *Bench
	Golden   *sim.Trace
	Activity *sim.Activity
	Features *features.Matrix
	// Snapshots are the periodic golden engine-state restore points
	// captured during the golden run; campaign runners fast-forward faulty
	// batches from them (see sim.Snapshots).
	Snapshots *sim.Snapshots
}

// Materialize runs generate → synthesize → compile → build workload →
// golden simulation (collecting activity) → feature extraction for the
// scenario. The result is deterministic in (scenario, scale, ResolveSeed(seed)).
func (s Scenario) Materialize(scale Scale, seed int64) (*Materialized, error) {
	return s.MaterializeWith(scale, seed, nil)
}

// MaterializeWith is Materialize with a netlist rewrite hook applied
// between generation and synthesis — the seam a hardened campaign spec uses
// (fabric.BuildCampaign) to TMR-rewrite a DUT (circuit.ApplyTMR) and
// re-measure it under the unchanged workload. A nil rewrite is exactly Materialize; determinism
// extends to the rewrite (the result is deterministic in scenario, scale,
// seed and what the hook does). Workloads resolve ports by name, so a
// rewrite must preserve the port surface but may change anything else.
func (s Scenario) MaterializeWith(scale Scale, seed int64, rewrite func(*netlist.Netlist) error) (*Materialized, error) {
	seed = ResolveSeed(seed)
	nl, err := s.Entry.Generate(scale, seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: generating %s: %w", s.ID(), err)
	}
	if rewrite != nil {
		if err := rewrite(nl); err != nil {
			return nil, fmt.Errorf("corpus: rewriting %s: %w", s.ID(), err)
		}
	}
	if err := circuit.Synthesize(nl); err != nil {
		return nil, fmt.Errorf("corpus: synthesizing %s: %w", s.ID(), err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		return nil, fmt.Errorf("corpus: compiling %s: %w", s.ID(), err)
	}
	bench, err := s.Workload.Build(p, scale, seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: building workload %s: %w", s.ID(), err)
	}
	if bench.Classifier == nil {
		return nil, fmt.Errorf("corpus: workload %s built a bench without a classifier", s.ID())
	}
	if bench.ActiveCycles < 1 || bench.ActiveCycles > bench.Stim.Cycles() {
		return nil, fmt.Errorf("corpus: workload %s has injection window %d of %d cycles",
			s.ID(), bench.ActiveCycles, bench.Stim.Cycles())
	}

	// The golden run executes on the campaign's kernel, memoized on p.
	k, err := p.Kernel(bench.Stim.ObservedOutputs(bench.Monitors))
	if err != nil {
		return nil, fmt.Errorf("corpus: compiling the kernel of %s: %w", s.ID(), err)
	}
	snaps := sim.NewSnapshots(p, bench.Stim, 0)
	golden, act := sim.RunKernel(sim.NewKernelEngine(k, 1), bench.Stim, sim.RunConfig{
		Monitors:        bench.Monitors,
		CollectActivity: true,
		Snapshots:       snaps,
	})

	ex, err := features.NewExtractor(nl)
	if err != nil {
		return nil, fmt.Errorf("corpus: feature extraction for %s: %w", s.ID(), err)
	}
	fm, err := ex.Extract(act)
	if err != nil {
		return nil, fmt.Errorf("corpus: feature extraction for %s: %w", s.ID(), err)
	}
	return &Materialized{
		Scenario:  s,
		Scale:     scale,
		Seed:      seed,
		Netlist:   nl,
		Program:   p,
		Bench:     bench,
		Golden:    golden,
		Activity:  act,
		Features:  fm,
		Snapshots: snaps,
	}, nil
}

// ResolveSeed is the one materialization-seed rule: 0 means 1, so an entry
// point that leaves the seed unset measures the same circuit and workload as
// one that asks for seed 1. MaterializeWith applies it (Materialized.Seed is
// the resolved seed), and a campaign spec resolves through it.
func ResolveSeed(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// NumFFs returns the flip-flop count of the materialized DUT.
func (m *Materialized) NumFFs() int { return m.Program.NumFFs() }

// ErrBudget marks a campaign request with a negative injection budget.
var ErrBudget = errors.New("corpus: negative injection budget")

// Campaign resolves a requested campaign shape against the scenario: a zero
// budget or seed means the scenario's default, a negative budget is
// ErrBudget. Every entry point that takes a budget (core studies and the
// fabric spec, which the hardening verifier runs on) resolves it here and
// nowhere else.
func (s Scenario) Campaign(injectionsPerFF int, campaignSeed int64) (Geometry, error) {
	g := s.Entry.Defaults
	if injectionsPerFF < 0 {
		return g, fmt.Errorf("%w: %d injections per flip-flop on %s", ErrBudget, injectionsPerFF, s.ID())
	}
	if injectionsPerFF > 0 {
		g.InjectionsPerFF = injectionsPerFF
	}
	if campaignSeed != 0 {
		g.CampaignSeed = campaignSeed
	}
	return g, nil
}

// Jobs draws the injection plan of a campaign over the materialized DUT:
// injectionsPerFF cycles of the workload's injection window for every target
// of model, sampled from campaignSeed (both resolved by Scenario.Campaign).
func (m *Materialized) Jobs(model fault.Model, injectionsPerFF int, campaignSeed int64) []fault.Job {
	return fault.NewModelPlan(model, model.NumTargets(m.Program), injectionsPerFF,
		m.Bench.ActiveCycles, campaignSeed)
}

// Runner is the one place a materialized scenario becomes a campaign
// runner: program, stimulus, monitors, failure criterion, golden trace and
// snapshots all come from m. The caller's cfg carries only what m cannot
// know — the fault model and chunk geometry of the campaign, and what is
// this node's alone (pool bound, checkpointing, instrumentation).
func (m *Materialized) Runner(cfg fault.RunnerConfig) (*fault.Runner, error) {
	cfg.Golden, cfg.Snapshots = m.Golden, m.Snapshots
	return fault.NewRunner(m.Program, m.Bench.Stim, m.Bench.Monitors, m.Bench.Classifier, cfg)
}
