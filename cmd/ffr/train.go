package main

import (
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/persist"
)

// runTrain trains one regression model on the FDR estimation problem and
// reports the paper's five metrics, optionally running the random-search +
// grid-refinement hyperparameter procedure first.
//
// With -save the final model — refitted on every flip-flop's measured FDR —
// is written as a versioned artifact, ready to be served by ffr serve or
// reloaded with ffr exp -exp predict: the campaign and the training run
// once, predictions are forever.
func runTrain(c *cli.Cmd) error {
	var (
		model   = c.Flags.String("model", "k-NN", "model name (Table I row label)")
		train   = c.Flags.Float64("train", core.PaperTrainFrac, "training size fraction")
		splits  = c.Flags.Int("splits", core.PaperCVSplits, "cross-validation splits")
		n       = c.Flags.Int("n", core.PaperInjections, "injections per flip-flop")
		tune    = c.Flags.Bool("tune", false, "random+grid hyperparameter search before evaluation")
		samples = c.Flags.Int("samples", 20, "random-search samples when -tune is set")
		save    = c.Flags.String("save", "", "write the final fitted model to this artifact file")
		tel     = c.Telemetry(0)
	)
	if err := c.Parse(); err != nil {
		return err
	}
	spec, err := core.FindModel(*model)
	if err != nil {
		return c.UsageErrorf("bad -model: %v", err)
	}
	if err := cli.Check(
		c.OpenUnit("train", *train),
		c.MinInt("splits", *splits, 1),
		c.MinInt("n", *n, 1),
		c.MinInt("samples", *samples, 1),
		c.OnlyWith("a model that has hyperparameters", spec.Tunable != nil, "tune"),
		cli.Creatable("save", *save),
	); err != nil {
		return err
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()
	study, err := macStudy(*n, tel)
	if err != nil {
		return err
	}
	if _, err := study.RunGroundTruthContext(c.Ctx); err != nil {
		return err
	}

	if *tune {
		out, err := study.TuneModel(spec, *samples, 1)
		if err != nil {
			return err
		}
		c.Printf("random search: best %v (R²=%.3f over %d samples)\n",
			out.Random.Best, out.Random.BestScore, out.Random.Evaluated)
		c.Printf("grid refine:   best %v (R²=%.3f over %d points)\n",
			out.Grid.Best, out.Grid.BestScore, out.Grid.Evaluated)
		// The search winner becomes the model under evaluation — and the
		// model -save persists — not the paper defaults.
		best, build := out.Grid.Best, spec.Tunable.Build
		spec.Factory = func() ml.Regressor { return build(best) }
		c.Printf("evaluating and saving with tuned parameters %v\n", best)
	}

	rows, err := study.Table1([]core.ModelSpec{spec}, *splits, *train, 1)
	if err != nil {
		return err
	}
	if err := core.RenderTable1(c.Stdout, rows); err != nil {
		return err
	}
	if *save == "" {
		return nil
	}
	art, err := study.FitArtifact(spec.Name, spec, rows[0])
	if err != nil {
		return err
	}
	if err := persist.Save(*save, art); err != nil {
		return err
	}
	c.Printf("\nsaved %q (%s) trained on %d flip-flops to %s\n",
		art.Name, art.Kind, art.TrainRows, *save)
	c.Printf("serve it with: ffr serve -model %s\n", *save)
	return nil
}
