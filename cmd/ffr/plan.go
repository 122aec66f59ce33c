package main

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/ml/metrics"
)

// runPlan runs the active-learning campaign planner: instead of
// fault-injecting every flip-flop, it closes the loop train →
// score-disagreement → select-next-injection-batch → inject → retrain on any
// corpus scenario, stopping when the circuit-level FFR estimate converges or
// the injection budget is spent.
//
// -budget is the fraction of flip-flops the loop may measure; -delta and
// -ci enable early convergence (round-over-round FFR change and 95 % CI
// width of the measured mean). With -checkpoint the loop state persists
// after every round and the in-flight round checkpoints on the campaign
// runner, so an interrupt followed by -resume restarts bit-identically.
// -eval additionally runs the exhaustive ground-truth campaign and scores
// the adaptive estimate against it — the cost-vs-quality readout of the
// paper's promise.
func runPlan(c *cli.Cmd) error {
	var (
		scenario   = c.Flags.String("scenario", "mac10ge/loopback", "corpus scenario to plan (family/workload)")
		scaleStr   = c.Flags.String("scale", "small", "circuit/workload scale: small or default")
		seed       = c.Flags.Int64("seed", 1, "planner seed (the random draws: every random round, committee's round 0)")
		strategy   = c.Flags.String("strategy", repro.StrategyCommittee, "acquisition strategy: random or committee")
		model      = c.Flags.String("model", "k-NN", "estimate model (Table I row label)")
		n          = c.Flags.Int("n", 0, "injections per measured flip-flop (0 = scenario default)")
		budget     = c.Flags.Float64("budget", 0.5, "fraction of flip-flops the loop may measure (0,1]")
		rounds     = c.Flags.Int("rounds", 0, "maximum planner rounds (0 = default)")
		initFFs    = c.Flags.Int("init", 0, "round-0 batch size in flip-flops (0 = -batch)")
		batch      = c.Flags.Int("batch", 0, "per-round batch size in flip-flops (0 = ~1/16 of the pool)")
		delta      = c.Flags.Float64("delta", 0, "FFR-delta convergence tolerance (0 = disabled)")
		ciWidth    = c.Flags.Float64("ci", 0, "95% CI width convergence tolerance (0 = disabled)")
		patience   = c.Flags.Int("patience", 0, "consecutive converged rounds required (0 = default)")
		checkpoint = c.Flags.String("checkpoint", "", "persist loop state to this file after every round")
		resume     = c.Flags.Bool("resume", false, "resume from -checkpoint if it exists")
		workers    = c.Flags.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS)")
		eval       = c.Flags.Bool("eval", false, "also run the exhaustive campaign and score the adaptive estimate against it")
		csvOut     = c.Flags.String("csv", "", "write the per-round trajectory to this CSV file")
		faultModel = c.FaultModel("fault model: seu, mbu:N, stuck0:D, stuck1:D, each with optional @start-end window")
		tel        = c.Telemetry(cli.Metrics | cli.Profile)
	)
	if err := c.Parse(); err != nil {
		return err
	}
	if err := cli.Check(
		c.MinInt("n", *n, 0),
		c.MinInt("rounds", *rounds, 0),
		c.MinInt("init", *initFFs, 0),
		c.MinInt("batch", *batch, 0),
		c.MinInt("patience", *patience, 0),
		c.MinInt("workers", *workers, 0),
		c.NonNegFloat("delta", *delta),
		c.NonNegFloat("ci", *ciWidth),
		c.Requires("resume", "checkpoint", !*resume || *checkpoint != ""),
		c.OneOf("strategy", *strategy, repro.AdaptiveStrategyNames()...),
	); err != nil {
		return err
	}
	if !(0 < *budget && *budget <= 1) { // NaN fails every comparison
		return c.UsageErrorf("-budget must be in (0,1] (got %g)", *budget)
	}
	fmodel, err := faultModel()
	if err != nil {
		return err
	}
	scale, err := repro.ParseCorpusScale(*scaleStr)
	if err != nil {
		return c.UsageErrorf("bad -scale: %v", err)
	}
	spec, err := repro.FindModel(*model)
	if err != nil {
		return c.UsageErrorf("bad -model: %v", err)
	}
	sc, err := repro.FindCorpusScenario(*scenario)
	if err != nil {
		return c.UsageErrorf("bad -scenario: %v", err)
	}
	if err := cli.Creatable("csv", *csvOut); err != nil {
		return err
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()

	study, err := repro.NewCorpusStudy(sc, repro.CorpusStudyConfig{
		Scale:           scale,
		InjectionsPerFF: *n,
		Model:           fmodel,
		Workers:         *workers,
		Metrics:         tel.Metrics,
		Logger:          tel.Logger,
	})
	if err != nil {
		return err
	}
	c.Printf("scenario %s at scale %s: %d flip-flops, %d injections per measured FF, fault model %s\n",
		study.ScenarioID(), scale, study.NumFFs(), study.Config.InjectionsPerFF, fmodel)

	// Floor keeps the spent fraction at or below the request; tiny budgets
	// still measure at least one flip-flop (0 would mean "planner default").
	budgetFFs := int(*budget * float64(study.NumFFs()))
	if budgetFFs < 1 {
		budgetFFs = 1
	}
	var trajectory [][]string
	adaptive, err := repro.NewAdaptiveStudy(study, repro.AdaptiveStudyConfig{
		Strategy:   *strategy,
		Model:      spec,
		Seed:       *seed,
		InitFFs:    *initFFs,
		RoundFFs:   *batch,
		MaxRounds:  *rounds,
		BudgetFFs:  budgetFFs,
		DeltaTol:   *delta,
		CIWidthTol: *ciWidth,
		Patience:   *patience,
		Checkpoint: *checkpoint,
		Resume:     *resume,
		OnRound: func(r repro.AdaptiveRound) {
			trajectory = append(trajectory, []string{
				strconv.Itoa(r.Index), strconv.Itoa(len(r.Selected)),
				strconv.Itoa(r.MeasuredFFs), strconv.Itoa(r.Injections),
				ftoa(r.FFR), ftoa(r.CILo), ftoa(r.CIHi), ftoa(r.Delta), strconv.FormatBool(r.Resumed),
			})
			resumed := ""
			if r.Resumed {
				resumed = " (resumed)"
			}
			c.Printf("round %2d: +%3d FFs -> %4d measured, %6d injections, FFR %.4f (CI %.4f..%.4f, delta %.4f)%s\n",
				r.Index, len(r.Selected), r.MeasuredFFs, r.Injections, r.FFR, r.CILo, r.CIHi, r.Delta, resumed)
		},
	})
	if err != nil {
		return err
	}

	// On cancellation the in-flight round's campaign checkpoint and the
	// loop checkpoint are flushed, and -resume picks the loop back up
	// bit-identically.
	start := time.Now()
	res, err := adaptive.RunContext(c.Ctx)
	if err != nil {
		if errors.Is(err, repro.ErrCampaignInterrupted) && *checkpoint != "" {
			fmt.Fprintf(c.Stderr, "plan: loop state saved to %s; rerun with -resume to continue\n", *checkpoint)
		}
		return err
	}

	exhaustive := study.NumFFs() * study.Config.InjectionsPerFF
	c.Printf("\n%s strategy finished in %v: %d rounds, converged=%v\n",
		*strategy, time.Since(start).Round(time.Millisecond), len(res.Rounds), res.Converged)
	c.Printf("measured %d of %d flip-flops — %d injections, %.1f%% of the exhaustive campaign\n",
		len(res.Measured), study.NumFFs(), res.TotalInjections,
		100*float64(res.TotalInjections)/float64(exhaustive))
	c.Printf("FFR estimate %.4f (measured-mean 95%% CI %.4f..%.4f)\n", res.FFR, res.CILo, res.CIHi)
	c.Printf("model fingerprint %016x, estimate fingerprint %016x\n",
		res.ModelFingerprint, res.EstimateFingerprint)

	if *csvOut != "" {
		header := []string{"round", "selected", "measured_ffs", "injections", "ffr", "ci_lo", "ci_hi", "delta", "resumed"}
		if err := cli.WriteCSV(*csvOut, header, trajectory); err != nil {
			return err
		}
		c.Printf("wrote %d rounds to %s\n", len(trajectory), *csvOut)
	}
	if *eval {
		return planEval(c, study, res)
	}
	return nil
}

// planEval runs the exhaustive ground-truth campaign and scores the
// adaptive estimate against it: prediction quality on the flip-flops the
// planner never measured, and the circuit-level FFR error.
func planEval(c *cli.Cmd, study *repro.Study, res *repro.AdaptiveResult) error {
	c.Printf("\nrunning exhaustive ground-truth campaign for -eval…\n")
	gt, err := study.RunGroundTruthContext(c.Ctx)
	if err != nil {
		return err
	}
	measured := make(map[int]bool, len(res.Measured))
	for _, ff := range res.Measured {
		measured[ff] = true
	}
	var truth, pred []float64
	var trueFFR float64
	for ff, fdr := range gt.FDR {
		trueFFR += fdr
		if !measured[ff] {
			truth = append(truth, fdr)
			pred = append(pred, res.Estimates[ff])
		}
	}
	trueFFR /= float64(len(gt.FDR))
	if len(truth) == 0 {
		// -budget 1: everything was measured, there is nothing to predict.
		c.Printf("no unmeasured flip-flops left to score (budget covered the whole device)\n")
	} else {
		c.Printf("unmeasured flip-flops (%d): %v, Kendall tau=%.3f\n",
			len(truth), metrics.Evaluate(truth, pred), metrics.KendallTau(truth, pred))
	}
	c.Printf("circuit FFR: true %.4f vs adaptive estimate %.4f (error %+.4f)\n",
		trueFFR, res.FFR, res.FFR-trueFFR)
	return nil
}
