package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/ml/metrics"
	"repro/internal/persist"
	"repro/internal/plan"
)

// experiments lists the MAC-study experiments in the order -exp all runs
// them; predict and cross are dispatched apart because they need no
// ground-truth campaign on the MAC.
var experiments = []struct {
	id  string
	run func(expRunner) error
}{
	{"campaign", expRunner.campaign},
	{"table1", func(r expRunner) error { return r.table1(core.PaperModels()) }},
	{"fig2a", func(r expRunner) error { return r.figA("fig2a", core.PaperModels()[0]) }},
	{"fig2b", func(r expRunner) error { return r.figB("fig2b", core.PaperModels()[0]) }},
	{"fig3a", func(r expRunner) error { return r.figA("fig3a", core.PaperModels()[1]) }},
	{"fig3b", func(r expRunner) error { return r.figB("fig3b", core.PaperModels()[1]) }},
	{"fig4a", func(r expRunner) error { return r.figA("fig4a", core.PaperModels()[2]) }},
	{"fig4b", func(r expRunner) error { return r.figB("fig4b", core.PaperModels()[2]) }},
	{"table1x", func(r expRunner) error { return r.table1(core.ExtendedModels()) }},
	{"search", expRunner.search},
	{"features", expRunner.features},
	{"budget", expRunner.budget},
}

// runExp regenerates the paper's evaluation artifacts: Table I and Figures
// 2a/2b, 3a/3b, 4a/4b, plus the campaign report, the extended-model table,
// the hyperparameter search, the feature table (k-NN without each feature
// group, near-duplicate family and column, and behind PCA) and the
// equal-injection budget table, replayed from the one ground-truth
// campaign. Figure experiments also emit the plotted series as CSV files
// when -csvdir is given.
//
// The predict experiment is the train-once/predict-forever fast path: it
// loads a saved model artifact (ffr train -save) and predicts the FDR of
// every flip-flop from features alone — no campaign, no retraining.
//
// The cross experiment is the corpus's cross-circuit generalization study:
// it runs the ground-truth campaign of each -scenarios entry, trains the
// paper's k-NN on each and predicts every other, and emits the
// train-on-A/predict-on-B transfer matrices (R² and Kendall τ) — one per
// -fault-models entry.
func runExp(c *cli.Cmd) error {
	var (
		exp       = c.Flags.String("exp", "all", "experiment id")
		n         = c.Flags.Int("n", core.PaperInjections, "injections per flip-flop")
		seed      = c.Flags.Int64("seed", 1, "evaluation split seed")
		csvDir    = c.Flags.String("csvdir", "", "directory for figure CSV series")
		load      = c.Flags.String("load", "", "model artifact for -exp predict")
		scenarios = c.Flags.String("scenarios", "mac10ge/loopback,alupipe/randomops,rrarb/uniform,uartser/paced",
			"comma-separated corpus scenarios for -exp cross")
		scaleStr    = c.Flags.String("scale", "small", "corpus scale for -exp cross: small or default")
		faultModels = c.Flags.String("fault-models", "seu,mbu:2,stuck0:2",
			"comma-separated fault models for -exp cross; one transfer matrix is emitted per model")
		tel = c.Telemetry(0)
	)
	if err := c.Parse(); err != nil {
		return err
	}
	ids := []string{"all", "predict", "cross"}
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	if err := cli.Check(
		c.MinInt("n", *n, 1),
		c.OneOf("exp", *exp, ids...),
		c.OnlyWith("-exp predict", *exp == "predict", "load"),
		c.OnlyWith("-exp cross", *exp == "cross", "scenarios", "scale", "fault-models"),
	); err != nil {
		return err
	}
	if *exp == "predict" && *load == "" {
		return c.Requires("exp predict", "load", false)
	}
	if *csvDir != "" {
		if err := cli.Creatable("csvdir", filepath.Join(*csvDir, *exp+".csv")); err != nil {
			return err
		}
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()
	r := expRunner{c: c, seed: *seed, csvDir: *csvDir}

	// Neither special experiment runs the MAC campaign, so both resolve
	// their inputs before the (expensive) MAC study build.
	switch *exp {
	case "cross":
		scale, err := corpus.ParseScale(*scaleStr)
		if err != nil {
			return err
		}
		return r.cross(*scenarios, *faultModels, scale, *n, tel)
	case "predict":
		art, err := persist.Load(*load)
		if err != nil {
			return err
		}
		if r.study, err = macStudy(*n, tel); err != nil {
			return err
		}
		return r.predict(art, *load)
	}

	if r.study, err = macStudy(*n, tel); err != nil {
		return err
	}
	start := time.Now()
	if _, err := r.study.RunGroundTruthContext(c.Ctx); err != nil {
		return err
	}
	c.Printf("# ground truth: %d FFs x %d injections in %v\n\n",
		r.study.NumFFs(), *n, time.Since(start).Round(time.Millisecond))
	for _, e := range experiments {
		switch *exp {
		case e.id:
			return e.run(r)
		case "all":
			c.Printf("== %s ==\n", e.id)
			if err := e.run(r); err != nil {
				return fmt.Errorf("%s: %w", e.id, err)
			}
			c.Printf("\n")
		}
	}
	return nil
}

// expRunner carries what every experiment needs.
type expRunner struct {
	c      *cli.Cmd
	study  *core.Study
	seed   int64
	csvDir string
}

// writeSeries writes a figure's plotted series to <csvdir>/<id>.csv; it
// does nothing without -csvdir.
func (r expRunner) writeSeries(id string, header []string, rows [][]string) error {
	if r.csvDir == "" {
		return nil
	}
	path := filepath.Join(r.csvDir, id+".csv")
	if err := cli.WriteCSV(path, header, rows); err != nil {
		return err
	}
	r.c.Printf("wrote %s\n", path)
	return nil
}

// predict is -exp predict: validate the artifact's schema against the
// extractor's, then predict every flip-flop.
func (r expRunner) predict(art *persist.Artifact, path string) error {
	start := time.Now()
	if err := art.CheckSchema(features.Names()); err != nil {
		return err
	}
	r.c.Printf("loaded %q (%s, trained on %d flip-flops, hash %x) from %s\n",
		art.Name, art.Kind, art.TrainRows, art.TrainHash, path)
	if len(art.Metrics) > 0 {
		r.c.Printf("training-time CV metrics: %v\n", art.Metrics)
	}

	X := r.study.FeatureRows()
	preds := make([]float64, len(X))
	var mean float64
	max := math.Inf(-1)
	for i, x := range X {
		preds[i] = art.Model.Predict(x)
		mean += preds[i]
		if preds[i] > max {
			max = preds[i]
		}
	}
	mean /= float64(len(preds))
	r.c.Printf("\npredicted FDR for %d flip-flops in %v — no campaign, no retraining\n",
		len(preds), time.Since(start).Round(time.Millisecond))
	r.c.Printf("mean predicted FDR: %.4f, max: %.3f\n\nfirst predictions:\n", mean, max)
	for i := 0; i < 8 && i < len(preds); i++ {
		r.c.Printf("  %-28s %.3f\n", r.study.Netlist.Cells[r.study.Program.FFCell(i)].Name, preds[i])
	}
	return nil
}

func (r expRunner) campaign() error {
	res, err := r.study.RunGroundTruth()
	if err != nil {
		return err
	}
	return core.RenderCampaign(r.c.Stdout, res)
}

func (r expRunner) table1(models []core.ModelSpec) error {
	rows, err := r.study.Table1(models, core.PaperCVSplits, core.PaperTrainFrac, r.seed)
	if err != nil {
		return err
	}
	return core.RenderTable1(r.c.Stdout, rows)
}

// figA reproduces Figures 2a/3a/4a: the per-instance prediction of an
// example fold with training size 50 %.
func (r expRunner) figA(id string, spec core.ModelSpec) error {
	est, err := r.study.EstimateFDR(spec.Factory, core.PaperTrainFrac, r.seed)
	if err != nil {
		return err
	}
	if err := core.RenderFold(r.c.Stdout, spec.Name, est); err != nil {
		return err
	}
	r.c.Printf("train: %v\ntest:  %v\n",
		metrics.Evaluate(est.TrainTrue, est.TrainPred), metrics.Evaluate(est.TestTrue, est.TestPred))
	var rows [][]string
	series := func(part string, idx []int, truth, pred []float64) {
		for i := range idx {
			rows = append(rows, []string{
				part, strconv.Itoa(i), strconv.Itoa(idx[i]),
				ftoa(truth[i]), ftoa(pred[i]), ftoa(pred[i] - truth[i]),
			})
		}
	}
	series("train", est.TrainIdx, est.TrainTrue, est.TrainPred)
	series("test", est.TestIdx, est.TestTrue, est.TestPred)
	return r.writeSeries(id,
		[]string{"partition", "series_index", "ff_index", "true_fdr", "predicted_fdr", "error"}, rows)
}

// figB reproduces Figures 2b/3b/4b: the learning curves.
func (r expRunner) figB(id string, spec core.ModelSpec) error {
	points, err := r.study.LearningCurve(spec, core.PaperLearningFracs(), core.PaperCVSplits, r.seed)
	if err != nil {
		return err
	}
	if err := core.RenderLearningCurve(r.c.Stdout, spec.Name, points); err != nil {
		return err
	}
	rows := make([][]string, len(points))
	for i, p := range points {
		rows[i] = []string{ftoa(p.TrainFrac), ftoa(p.TrainScore), ftoa(p.TestScore)}
	}
	return r.writeSeries(id, []string{"train_frac", "train_r2", "test_r2"}, rows)
}

func (r expRunner) search() error {
	for _, spec := range core.PaperModels() {
		if spec.Tunable == nil {
			continue
		}
		out, err := r.study.TuneModel(spec, 20, r.seed)
		if err != nil {
			return err
		}
		r.c.Printf("%s:\n  random search best %v (R²=%.3f, %d samples)\n  grid refine  best %v (R²=%.3f, %d points)\n",
			out.Model, out.Random.Best, out.Random.BestScore, out.Random.Evaluated,
			out.Grid.Best, out.Grid.BestScore, out.Grid.Evaluated)
	}
	return nil
}

// features is the Section V feature table: Table I on k-NN behind each
// column-keeping variant and each PCA row (core.FeatureVariants).
func (r expRunner) features() error {
	rows, err := r.study.Table1(core.FeatureVariants(core.PaperModels()[1]),
		core.PaperCVSplits, core.PaperTrainFrac, r.seed)
	if err != nil {
		return err
	}
	r.c.Printf("%-20s %8s %8s %8s %8s %8s\n", "Feature set", "MAE", "MAX", "RMSE", "EV", "R2")
	for _, row := range rows {
		r.c.Printf("%-20s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			row.Model, row.MAE, row.MAX, row.RMSE, row.EV, row.R2)
	}
	return nil
}

// budget is the equal-injection table: the paper's k-NN trained on the
// full campaign, then per budget fraction the thin spread (every pool
// flip-flop at that fraction of its injections), the random control and the
// committee planner (that fraction of the pool's flip-flops, six rounds),
// all replayed from the ground truth. At -n 170 the thin rows are 10, 34,
// 85 and 170 injections per flip-flop. Where the fraction of -n is below one
// injection, the thin row would spend one per flip-flop, more than its
// share, so a # note naming the smallest -n that fits takes its place.
func (r expRunner) budget() error {
	const format = "%-8s %-10s %5d %6d %6.3f %10s %7.3f %7.3f\n"
	n := r.study.Config.InjectionsPerFF
	r.c.Printf("%-8s %-10s %5s %6s %6s %10s %7s %7s\n", "budget", "row", "FFs", "inj/FF", "share", "|FFR-true|", "R2", "tau")
	for i, num := range []int{10, 34, 85, 170} {
		frac := float64(num) / 170
		cmp, err := r.study.CompareAdaptiveStrategies(plan.StrategyNames(), core.PaperModels()[1], frac, 6, r.seed)
		if err != nil {
			return err
		}
		if i == 0 {
			r.c.Printf(format, "-", "full", cmp.PoolFFs, n, 1.0, "-", cmp.FullR2, cmp.FullTau)
		}
		rows := cmp.Outcomes
		if num*n >= 170 {
			rows = append([]core.AdaptiveOutcome{cmp.Thin}, rows...)
		} else {
			r.c.Printf("# %.3f thin: left out, under one injection per flip-flop at -n %d; -n %d or more makes it equal-injection\n",
				frac, n, (170+num-1)/num)
		}
		for _, o := range rows {
			r.c.Printf(format, fmt.Sprintf("%.3f", frac), o.Strategy, o.MeasuredFFs, o.Injections/o.MeasuredFFs,
				o.InjectionFrac, fmt.Sprintf("%.4f", math.Abs(o.FFR-cmp.TrueFFR)), o.R2, o.Tau)
		}
	}
	return nil
}

// cross runs the cross-circuit generalization study, once per requested
// fault model: ground truth per scenario, the paper's k-NN trained on
// each, transfer scores on every ordered pair. Does FDR predictability
// transfer across circuits equally well for SEU, MBU and stuck-at faults?
func (r expRunner) cross(scenarioList, modelList string, scale corpus.Scale, n int, tel *cli.Telemetry) error {
	// Resolve and validate both lists before the first (expensive)
	// campaign so bad input fails in milliseconds, not minutes.
	selected, err := cli.Scenarios(scenarioList)
	if err != nil {
		return err
	}
	if len(selected) < 2 {
		return fmt.Errorf("-exp cross needs at least 2 scenarios, got %d", len(selected))
	}
	var models []fault.Model
	seenModel := map[string]bool{}
	for _, s := range strings.Split(modelList, ",") {
		m, err := fault.ParseModel(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		if seenModel[m.String()] {
			return fmt.Errorf("fault model %q selected twice", m)
		}
		seenModel[m.String()] = true
		models = append(models, m)
	}

	var csvRows [][]string
	for _, model := range models {
		// Per-fault-model campaigns: the same scenarios re-measured under
		// this model's ground truth, then the full transfer matrix.
		var studies []*core.Study
		for _, sc := range selected {
			start := time.Now()
			study, err := core.NewCorpusStudy(sc, core.CorpusStudyConfig{
				Scale:           scale,
				InjectionsPerFF: n,
				Model:           model,
				Logger:          tel.Logger,
			})
			if err != nil {
				return err
			}
			if _, err := study.RunGroundTruthContext(r.c.Ctx); err != nil {
				return fmt.Errorf("%s (%s): %w", sc.ID(), model, err)
			}
			r.c.Printf("# %-22s %-10s ground truth: %4d FFs x %d injections in %v\n",
				sc.ID(), model, study.NumFFs(), study.Config.InjectionsPerFF,
				time.Since(start).Round(time.Millisecond))
			studies = append(studies, study)
		}
		r.c.Printf("\n")

		// k-NN, the paper's best model.
		tm, err := core.CrossCircuit(studies, core.PaperModels()[1], r.seed)
		if err != nil {
			return err
		}
		if err := core.RenderTransferMatrix(r.c.Stdout, tm); err != nil {
			return err
		}
		r.c.Printf("\n")
		for i := range tm.Cells {
			for _, cell := range tm.Cells[i] {
				csvRows = append(csvRows, []string{
					tm.FaultModel, cell.TrainID, cell.TestID, strconv.FormatBool(cell.Diagonal),
					ftoa(cell.R2), ftoa(cell.Tau), ftoa(cell.MAE),
				})
			}
		}
	}
	return r.writeSeries("cross",
		[]string{"fault_model", "train", "test", "diagonal", "r2", "kendall_tau", "mae"}, csvRows)
}
