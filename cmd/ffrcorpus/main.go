// Command ffrcorpus drives the circuit/scenario corpus: it enumerates the
// registered DUT families and their workload variants, validates that every
// scenario generates, synthesizes, simulates and extracts deterministically,
// and sweeps the whole corpus end to end — generate → synthesize → simulate
// → inject → extract → train — through the sharded campaign runner with
// per-scenario golden-trace reuse, saving one tagged model artifact per
// scenario for ffrserve.
//
// Usage:
//
//	ffrcorpus -list
//	ffrcorpus -validate [-scale small|default] [-seed 1]
//	ffrcorpus -sweep    [-scale small|default] [-seed 1] [-n N]
//	          [-model "k-NN"] [-out DIR] [-scenario family[/workload],...]
//	          [-shards N] [-workers N]
//	          [-fault-model seu|mbu:N|stuck0:D|stuck1:D]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -n 0 (the default) each scenario runs its registered default
// injection budget. -out writes one artifact per scenario, named
// <family>-<workload>.ffrm and tagged with the scenario so that
// ffrserve /v1/models can tell the models apart.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/profiling"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ffrcorpus:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list       = flag.Bool("list", false, "enumerate DUT families and scenario variants")
		validate   = flag.Bool("validate", false, "check generation/simulation determinism for every scenario")
		sweep      = flag.Bool("sweep", false, "run every scenario end to end through the campaign runner")
		scaleStr   = flag.String("scale", "small", "circuit/workload scale: small or default")
		seed       = flag.Int64("seed", 1, "generator and workload seed")
		n          = flag.Int("n", 0, "injections per flip-flop (0 = per-scenario default)")
		model      = flag.String("model", "k-NN", "model trained per scenario during -sweep")
		out        = flag.String("out", "", "directory for per-scenario model artifacts (-sweep)")
		scenario   = flag.String("scenario", "", "comma-separated scenario IDs (default: all)")
		shards     = flag.Int("shards", 0, "split each campaign into about this many shard chunks")
		workers    = flag.Int("workers", 0, "campaign worker count (0 = GOMAXPROCS)")
		faultModel = flag.String("fault-model", "", "fault model for -sweep campaigns: seu (default), mbu:N, stuck0:D, stuck1:D, each with optional @start-end window; falls back to FFR_FAULT_MODEL")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
		logFlags   = cli.RegisterLog()
	)
	flag.Parse()

	if err := cli.Check(
		cli.NoArgs("ffrcorpus"),
		cli.MinInt("ffrcorpus", "n", *n, 0),
		cli.MinInt("ffrcorpus", "shards", *shards, 0),
		cli.MinInt("ffrcorpus", "workers", *workers, 0),
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
		return cli.UsageErrorf("ffrcorpus", "exactly one of -list, -validate, -sweep is required")
	}
	fm := *faultModel
	if fm == "" {
		fm = os.Getenv("FFR_FAULT_MODEL")
	}
	fmodel, err := fault.ParseModel(fm)
	if err != nil {
		return cli.UsageErrorf("ffrcorpus", "bad -fault-model: %v", err)
	}
	logger, err := logFlags.Logger("ffrcorpus")
	if err != nil {
		return err
	}
	scale, err := repro.ParseCorpusScale(*scaleStr)
	if err != nil {
		return err
	}
	scenarios, err := selectScenarios(*scenario)
	if err != nil {
		return err
	}
	// Only after flag validation: a usage error must not truncate an
	// existing profile at -cpuprofile.
	stopProfiling, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiling()

	switch {
	case *list:
		return runList()
	case *validate:
		return runValidate(scenarios, scale, *seed)
	default:
		spec, err := repro.FindModel(*model)
		if err != nil {
			return err
		}
		return runSweep(scenarios, sweepConfig{
			scale: scale, seed: *seed, injections: *n,
			spec: spec, outDir: *out, shards: *shards, workers: *workers,
			logger: logger, model: fmodel,
		})
	}
}

// selectScenarios resolves the -scenario list, defaulting to the whole
// corpus in registration order.
func selectScenarios(arg string) ([]repro.CorpusScenario, error) {
	if arg == "" {
		return repro.CorpusScenarios(), nil
	}
	var out []repro.CorpusScenario
	seen := map[string]bool{}
	for _, id := range strings.Split(arg, ",") {
		sc, err := repro.FindCorpusScenario(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		if seen[sc.ID()] {
			return nil, fmt.Errorf("scenario %q selected twice", sc.ID())
		}
		seen[sc.ID()] = true
		out = append(out, sc)
	}
	return out, nil
}

func runList() error {
	families := repro.CorpusFamilies()
	nScenarios := len(repro.CorpusScenarioIDs())
	fmt.Printf("corpus: %d DUT families, %d scenarios\n\n", len(families), nScenarios)
	for _, e := range families {
		fmt.Printf("%-10s %s\n", e.Name, e.Description)
		fmt.Printf("%-10s default geometry: %d injections/FF, campaign seed %d\n",
			"", e.Defaults.InjectionsPerFF, e.Defaults.CampaignSeed)
		for i := range e.Workloads {
			w := &e.Workloads[i]
			fmt.Printf("  %-22s %s\n", e.Name+"/"+w.Name, w.Description)
		}
		fmt.Println()
	}
	return nil
}

// runValidate materializes every scenario twice and checks the determinism
// contract: identical netlist fingerprints and identical golden-trace
// fingerprints for the same (scale, seed).
func runValidate(scenarios []repro.CorpusScenario, scale repro.CorpusScale, seed int64) error {
	fmt.Printf("validating %d scenarios at scale %s, seed %d\n\n", len(scenarios), scale, seed)
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
		fmt.Printf("  %-22s ok: %4d FFs, %5d cells, %4d cycles, golden %016x (%v)\n",
			sc.ID(), st.FlipFlops, st.Cells, m1.Bench.Stim.Cycles(),
			m1.Golden.Fingerprint(), time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("\ncorpus validation OK")
	return nil
}

type sweepConfig struct {
	scale      repro.CorpusScale
	seed       int64
	injections int
	spec       repro.ModelSpec
	outDir     string
	shards     int
	workers    int
	model      fault.Model
	logger     *obs.Logger
}

// runSweep carries every selected scenario through the full flow and
// optionally persists one tagged artifact per scenario.
func runSweep(scenarios []repro.CorpusScenario, cfg sweepConfig) error {
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
	}
	fmt.Printf("sweeping %d scenarios at scale %s (model %s, fault model %s)\n\n",
		len(scenarios), cfg.scale, cfg.spec.Name, cfg.model)
	for _, sc := range scenarios {
		start := time.Now()
		study, err := repro.NewCorpusStudy(sc, repro.CorpusStudyConfig{
			Scale:           cfg.scale,
			Seed:            cfg.seed,
			InjectionsPerFF: cfg.injections,
			Model:           cfg.model,
			Workers:         cfg.workers,
			Shards:          cfg.shards,
			Logger:          cfg.logger,
		})
		if err != nil {
			return err
		}
		campaign, err := study.RunGroundTruth()
		if err != nil {
			return fmt.Errorf("%s: campaign: %w", sc.ID(), err)
		}
		saved := ""
		if campaign.SimulatedCycles > 0 && campaign.SimulatedCycles < campaign.ReplayCycles {
			saved = fmt.Sprintf(", %.2fx cycles saved",
				float64(campaign.ReplayCycles)/float64(campaign.SimulatedCycles))
		}
		fmt.Printf("  %-22s %4d FFs × %3d injections = %6d runs in %d chunks (%v%s)\n",
			sc.ID(), study.NumFFs(), study.Config.InjectionsPerFF,
			campaign.TotalRuns, campaign.Chunks, time.Since(start).Round(time.Millisecond), saved)

		if cfg.outDir == "" {
			continue
		}
		art, scores, err := trainArtifact(study, cfg.spec)
		if err != nil {
			return fmt.Errorf("%s: training: %w", sc.ID(), err)
		}
		path := filepath.Join(cfg.outDir,
			fmt.Sprintf("%s-%s.ffrm", sc.Entry.Name, sc.Workload.Name))
		if err := repro.SaveModel(path, art); err != nil {
			return err
		}
		fmt.Printf("  %-22s saved %s (CV R²=%.3f, tagged %s)\n",
			"", path, scores.R2, study.ScenarioID())
	}
	fmt.Println("\ncorpus sweep OK")
	return nil
}

// trainArtifact evaluates the model under the Table I protocol for its CV
// metrics, refits it on the full measured dataset, and tags the artifact
// with the study's scenario.
func trainArtifact(study *repro.Study, spec repro.ModelSpec) (*repro.ModelArtifact, repro.TableRow, error) {
	rows, err := study.Table1([]repro.ModelSpec{spec}, 5, repro.PaperTrainFrac, 1)
	if err != nil {
		return nil, repro.TableRow{}, err
	}
	X := study.FeatureRows()
	y, err := study.FDR()
	if err != nil {
		return nil, repro.TableRow{}, err
	}
	model := spec.Factory()
	if err := model.Fit(X, y); err != nil {
		return nil, repro.TableRow{}, err
	}
	// The artifact name carries the scenario so a whole sweep can be
	// loaded into one ffrserve instance (the registry keys by name).
	name := fmt.Sprintf("%s@%s", spec.Name, study.ScenarioID())
	art := repro.NewModelArtifact(name, model, repro.FeatureNames())
	art.Circuit = study.CircuitName
	art.Workload = study.WorkloadName
	art.TrainRows = len(X)
	art.TrainHash = repro.ModelDataFingerprint(X, y)
	row := rows[0]
	art.Metrics = map[string]float64{
		"cv_mae": row.MAE, "cv_max": row.MAX, "cv_rmse": row.RMSE,
		"cv_ev": row.EV, "cv_r2": row.R2,
	}
	return art, row, nil
}
