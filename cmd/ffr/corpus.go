package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/cli"
)

// runCorpus drives the circuit/scenario corpus: it enumerates the
// registered DUT families and their workload variants, validates that every
// scenario generates, synthesizes, simulates and extracts deterministically,
// and sweeps the corpus end to end — generate → synthesize → simulate →
// inject → extract → train — saving one tagged model artifact per scenario
// for ffr serve.
//
// With -n 0 (the default) each scenario runs its registered default
// injection budget. -out writes one artifact per scenario, named
// <family>-<workload>.ffrm and tagged with the scenario so that /v1/models
// can tell the models apart.
func runCorpus(c *cli.Cmd) error {
	var (
		list       = c.Flags.Bool("list", false, "enumerate DUT families and scenario variants")
		validate   = c.Flags.Bool("validate", false, "check generation/simulation determinism for every scenario")
		sweep      = c.Flags.Bool("sweep", false, "run every scenario end to end through the campaign runner")
		scaleStr   = c.Flags.String("scale", "small", "circuit/workload scale: small or default")
		seed       = c.Flags.Int64("seed", 1, "generator and workload seed (0 means 1)")
		n          = c.Flags.Int("n", 0, "injections per flip-flop (0 = per-scenario default)")
		model      = c.Flags.String("model", "k-NN", "model trained per scenario during -sweep")
		out        = c.Flags.String("out", "", "directory for per-scenario model artifacts (-sweep)")
		scenario   = c.Flags.String("scenario", "", "comma-separated scenario IDs (default: all)")
		shards     = c.Flags.Int("shards", 0, "split each campaign into about this many shard chunks")
		workers    = c.Flags.Int("workers", 0, "campaign worker count (0 = GOMAXPROCS)")
		faultModel = c.FaultModel("fault model for -sweep campaigns: seu, mbu:N, stuck0:D, stuck1:D, each with optional @start-end window")
		tel        = c.Telemetry(cli.Profile)
	)
	if err := c.Parse(); err != nil {
		return err
	}
	if err := cli.Check(
		c.MinInt("n", *n, 0),
		c.MinInt("shards", *shards, 0),
		c.MinInt("workers", *workers, 0),
	); err != nil {
		return err
	}
	modes := 0
	for _, m := range []bool{*list, *validate, *sweep} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		return c.UsageErrorf("exactly one of -list, -validate, -sweep is required")
	}
	fmodel, err := faultModel()
	if err != nil {
		return err
	}
	scale, err := repro.ParseCorpusScale(*scaleStr)
	if err != nil {
		return c.UsageErrorf("bad -scale: %v", err)
	}
	scenarios := repro.CorpusScenarios()
	if *scenario != "" {
		if scenarios, err = cli.Scenarios(*scenario); err != nil {
			return c.UsageErrorf("bad -scenario: %v", err)
		}
	}
	var spec repro.ModelSpec
	if *sweep {
		if spec, err = repro.FindModel(*model); err != nil {
			return c.UsageErrorf("bad -model: %v", err)
		}
	}
	if *sweep && *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		if err := cli.Creatable("out", filepath.Join(*out, artifactFile(scenarios[0]))); err != nil {
			return err
		}
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()

	switch {
	case *list:
		corpusList(c)
		return nil
	case *validate:
		return corpusValidate(c, scenarios, scale, *seed)
	}

	// Sweep: carry every selected scenario through the full flow and
	// optionally persist one tagged artifact per scenario.
	c.Printf("sweeping %d scenarios at scale %s (model %s, fault model %s)\n\n",
		len(scenarios), scale, spec.Name, fmodel)
	for _, sc := range scenarios {
		start := time.Now()
		study, err := repro.NewCorpusStudy(sc, repro.CorpusStudyConfig{
			Scale:           scale,
			Seed:            *seed,
			InjectionsPerFF: *n,
			Model:           fmodel,
			Workers:         *workers,
			Shards:          *shards,
			Logger:          tel.Logger,
		})
		if err != nil {
			return err
		}
		campaign, err := study.RunGroundTruthContext(c.Ctx)
		if err != nil {
			return fmt.Errorf("%s: campaign: %w", sc.ID(), err)
		}
		saved := ""
		if campaign.SimulatedCycles > 0 && campaign.SimulatedCycles < campaign.ReplayCycles {
			saved = fmt.Sprintf(", %.2fx cycles saved",
				float64(campaign.ReplayCycles)/float64(campaign.SimulatedCycles))
		}
		c.Printf("  %-22s %4d FFs × %3d injections = %6d runs in %d chunks (%v%s)\n",
			sc.ID(), study.NumFFs(), study.Config.InjectionsPerFF,
			campaign.TotalRuns, campaign.Chunks, time.Since(start).Round(time.Millisecond), saved)
		if *out == "" {
			continue
		}
		// The Table I protocol gives the artifact its CV metrics; its name
		// carries the scenario so a whole sweep loads into one ffr serve
		// (the registry keys by name).
		rows, err := study.Table1([]repro.ModelSpec{spec}, 5, repro.PaperTrainFrac, 1)
		if err != nil {
			return fmt.Errorf("%s: training: %w", sc.ID(), err)
		}
		art, err := study.FitArtifact(spec.Name+"@"+study.ScenarioID(), spec, rows[0])
		if err != nil {
			return fmt.Errorf("%s: training: %w", sc.ID(), err)
		}
		path := filepath.Join(*out, artifactFile(sc))
		if err := repro.SaveModel(path, art); err != nil {
			return err
		}
		c.Printf("  %-22s saved %s (CV R²=%.3f, tagged %s)\n",
			"", path, rows[0].R2, study.ScenarioID())
	}
	c.Printf("\ncorpus sweep OK\n")
	return nil
}

// artifactFile names the artifact a sweep saves for a scenario.
func artifactFile(sc repro.CorpusScenario) string {
	return fmt.Sprintf("%s-%s.ffrm", sc.Entry.Name, sc.Workload.Name)
}

func corpusList(c *cli.Cmd) {
	families := repro.CorpusFamilies()
	c.Printf("corpus: %d DUT families, %d scenarios\n\n", len(families), len(repro.CorpusScenarioIDs()))
	for _, e := range families {
		c.Printf("%-10s %s\n", e.Name, e.Description)
		c.Printf("%-10s default geometry: %d injections/FF, campaign seed %d\n",
			"", e.Defaults.InjectionsPerFF, e.Defaults.CampaignSeed)
		for i := range e.Workloads {
			w := &e.Workloads[i]
			c.Printf("  %-22s %s\n", e.Name+"/"+w.Name, w.Description)
		}
		c.Printf("\n")
	}
}

// corpusValidate materializes every scenario twice and checks the
// determinism contract: identical netlist fingerprints and identical
// golden-trace fingerprints for the same (scale, seed).
func corpusValidate(c *cli.Cmd, scenarios []repro.CorpusScenario, scale repro.CorpusScale, seed int64) error {
	c.Printf("validating %d scenarios at scale %s, seed %d\n\n", len(scenarios), scale, seed)
	for _, sc := range scenarios {
		start := time.Now()
		m1, err := sc.Materialize(scale, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.ID(), err)
		}
		m2, err := sc.Materialize(scale, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.ID(), err)
		}
		if a, b := m1.Netlist.Fingerprint(), m2.Netlist.Fingerprint(); a != b {
			return fmt.Errorf("%s: netlist generation is nondeterministic (%x vs %x)", sc.ID(), a, b)
		}
		if a, b := m1.Golden.Fingerprint(), m2.Golden.Fingerprint(); a != b {
			return fmt.Errorf("%s: golden simulation is nondeterministic (%x vs %x)", sc.ID(), a, b)
		}
		if len(m1.Features.Rows) != m1.NumFFs() {
			return fmt.Errorf("%s: %d feature rows for %d flip-flops",
				sc.ID(), len(m1.Features.Rows), m1.NumFFs())
		}
		st := m1.Netlist.Stats()
		c.Printf("  %-22s ok: %4d FFs, %5d cells, %4d cycles, golden %016x (%v)\n",
			sc.ID(), st.FlipFlops, st.Cells, m1.Bench.Stim.Cycles(),
			m1.Golden.Fingerprint(), time.Since(start).Round(time.Millisecond))
	}
	c.Printf("\ncorpus validation OK\n")
	return nil
}
