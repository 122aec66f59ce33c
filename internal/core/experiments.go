package core

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/ml/modelsel"
	"repro/internal/persist"
)

// Paper evaluation protocol constants (Section IV-B).
const (
	// PaperCVSplits is the paper's "cross validation fold of 10".
	PaperCVSplits = 10
	// PaperTrainFrac is the paper's "training size of 50 %".
	PaperTrainFrac = 0.5
	// PaperInjections is the paper's flat-campaign budget: 170 injections
	// per flip-flop.
	PaperInjections = 170
	// PaperStratifyBins quantile-bins the FDR target for stratification.
	PaperStratifyBins = 10
)

// TableRow is one row of Table I.
type TableRow struct {
	Model string
	metrics.Scores
}

// Table1 reproduces Table I: every model evaluated over stratified shuffle
// splits at the given training size, scores averaged over splits.
func (s *Study) Table1(models []ModelSpec, nSplits int, trainFrac float64, seed int64) ([]TableRow, error) {
	y, err := s.FDR()
	if err != nil {
		return nil, err
	}
	splits, err := ml.StratifiedShuffleSplits(y, nSplits, trainFrac, PaperStratifyBins, seed)
	if err != nil {
		return nil, fmt.Errorf("core: table1 splits: %w", err)
	}
	X := s.FeatureRows()
	rows := make([]TableRow, 0, len(models))
	for _, spec := range models {
		res, err := modelsel.CrossValidate(spec.Factory, X, y, splits)
		if err != nil {
			return nil, fmt.Errorf("core: table1 %s: %w", spec.Name, err)
		}
		rows = append(rows, TableRow{Model: spec.Name, Scores: res.MeanTest()})
	}
	return rows, nil
}

// FitArtifact refits spec on every flip-flop's measured FDR — cross
// validation estimated the model's quality, serving wants all the evidence
// — and wraps it as the artifact called name: feature schema, scenario
// tags, training-data fingerprint and cv, the row that validation scored.
func (s *Study) FitArtifact(name string, spec ModelSpec, cv TableRow) (*persist.Artifact, error) {
	X := s.FeatureRows()
	y, err := s.FDR()
	if err != nil {
		return nil, err
	}
	model := spec.Factory()
	if err := model.Fit(X, y); err != nil {
		return nil, fmt.Errorf("core: final fit of %s: %w", spec.Name, err)
	}
	art := persist.New(name, model, features.Names())
	art.Circuit = s.Scenario.Entry.Name
	art.Workload = s.Scenario.Workload.Name
	art.TrainRows = len(X)
	art.TrainHash = persist.DataFingerprint(X, y)
	art.Metrics = map[string]float64{
		"cv_mae": cv.MAE, "cv_max": cv.MAX, "cv_rmse": cv.RMSE,
		"cv_ev": cv.EV, "cv_r2": cv.R2,
	}
	return art, nil
}

// Table1Ablation evaluates one model on a reduced feature matrix (the
// feature-group ablation bench).
func (s *Study) Table1Ablation(spec ModelSpec, X [][]float64, nSplits int, trainFrac float64, seed int64) (TableRow, error) {
	y, err := s.FDR()
	if err != nil {
		return TableRow{}, err
	}
	splits, err := ml.StratifiedShuffleSplits(y, nSplits, trainFrac, PaperStratifyBins, seed)
	if err != nil {
		return TableRow{}, fmt.Errorf("core: ablation splits: %w", err)
	}
	res, err := modelsel.CrossValidate(spec.Factory, X, y, splits)
	if err != nil {
		return TableRow{}, fmt.Errorf("core: ablation %s: %w", spec.Name, err)
	}
	return TableRow{Model: spec.Name, Scores: res.MeanTest()}, nil
}

// LearningCurve reproduces Figures 2b/3b/4b for one model: train and test
// R² as a function of the training size.
func (s *Study) LearningCurve(spec ModelSpec, fracs []float64, nSplits int, seed int64) ([]modelsel.LearningPoint, error) {
	y, err := s.FDR()
	if err != nil {
		return nil, err
	}
	// The learning-curve protocol subsamples each split's training
	// portion, so start from splits with a large training side.
	splits, err := ml.StratifiedKFoldSplits(y, nSplits, PaperStratifyBins, seed)
	if err != nil {
		return nil, fmt.Errorf("core: learning-curve splits: %w", err)
	}
	points, err := modelsel.LearningCurve(spec.Factory, s.FeatureRows(), y, fracs, splits, seed)
	if err != nil {
		return nil, fmt.Errorf("core: learning curve %s: %w", spec.Name, err)
	}
	return points, nil
}

// PaperLearningFracs are the training fractions swept in Figures 2b-4b.
func PaperLearningFracs() []float64 {
	return []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
}

// FoldPrediction reproduces Figures 2a/3a/4a: one 50 % split, the model's
// prediction on the train and test partitions, and the per-instance errors.
func (s *Study) FoldPrediction(spec ModelSpec, seed int64) (*EstimateResult, metrics.Scores, metrics.Scores, error) {
	est, err := s.EstimateFDR(spec.Factory, PaperTrainFrac, seed)
	if err != nil {
		return nil, metrics.Scores{}, metrics.Scores{}, err
	}
	trainScores := metrics.Evaluate(est.TrainTrue, est.TrainPred)
	testScores := metrics.Evaluate(est.TestTrue, est.TestPred)
	return est, trainScores, testScores, nil
}

// SearchOutcome reports a hyperparameter search (Section III-A protocol).
type SearchOutcome struct {
	Model  string
	Random modelsel.SearchResult
	Grid   modelsel.SearchResult
}

// TuneModel runs the paper's random-search-then-grid-refinement procedure
// for a tunable model, using the ground-truth targets.
func (s *Study) TuneModel(spec ModelSpec, nRandom int, seed int64) (*SearchOutcome, error) {
	if spec.Tunable == nil {
		return nil, fmt.Errorf("core: model %q has no tunable hyperparameters", spec.Name)
	}
	y, err := s.FDR()
	if err != nil {
		return nil, err
	}
	splits, err := ml.StratifiedShuffleSplits(y, 5, PaperTrainFrac, PaperStratifyBins, seed)
	if err != nil {
		return nil, err
	}
	X := s.FeatureRows()
	random, err := modelsel.RandomSearch(spec.Tunable.Score, spec.Tunable.Space, nRandom, X, y, splits, seed)
	if err != nil {
		return nil, fmt.Errorf("core: random search %s: %w", spec.Name, err)
	}
	grid := modelsel.RefineGrid(random.Best, spec.Tunable.Log, 5, 1.5)
	// Integer parameters refine on a unit grid.
	for name, r := range spec.Tunable.Space {
		if r.Integer {
			c := random.Best[name]
			vals := make([]float64, 0, 5)
			for d := -2.0; d <= 2; d++ {
				if v := c + d; v >= r.Min && v <= r.Max {
					vals = append(vals, v)
				}
			}
			grid[name] = vals
		}
	}
	refined, err := modelsel.GridSearch(spec.Tunable.Score, grid, X, y, splits)
	if err != nil {
		return nil, fmt.Errorf("core: grid search %s: %w", spec.Name, err)
	}
	return &SearchOutcome{Model: spec.Name, Random: random, Grid: refined}, nil
}

// FeatureValue runs the permutation-importance analysis the paper's future
// work calls for ("the value of each feature needs to be evaluated
// separately", Section V) using the given model on a 50 % split. The result
// is ordered by feature index, aligned with features.Names().
func (s *Study) FeatureValue(spec ModelSpec, repeats int, seed int64) ([]modelsel.FeatureImportance, error) {
	y, err := s.FDR()
	if err != nil {
		return nil, err
	}
	splits, err := ml.StratifiedShuffleSplits(y, 1, PaperTrainFrac, PaperStratifyBins, seed)
	if err != nil {
		return nil, err
	}
	imp, err := modelsel.PermutationImportance(spec.Factory, s.FeatureRows(), y, splits[0], repeats, seed)
	if err != nil {
		return nil, fmt.Errorf("core: feature value: %w", err)
	}
	return imp, nil
}

// PCAPoint is one dimensionality-reduction measurement: the Table I
// protocol with a PCA front end keeping k components.
type PCAPoint struct {
	Components int
	R2         float64
}

// PCASweep evaluates the dimensionality-reduction direction of Section V:
// the given base model behind a standardize+PCA pipeline at several kept
// dimensionalities.
func (s *Study) PCASweep(spec ModelSpec, components []int, nSplits int, seed int64) ([]PCAPoint, error) {
	y, err := s.FDR()
	if err != nil {
		return nil, err
	}
	splits, err := ml.StratifiedShuffleSplits(y, nSplits, PaperTrainFrac, PaperStratifyBins, seed)
	if err != nil {
		return nil, err
	}
	X := s.FeatureRows()
	out := make([]PCAPoint, 0, len(components))
	for _, k := range components {
		k := k
		factory := func() ml.Regressor {
			return &ml.Pipeline{
				Scaler: &pcaChain{std: &ml.StandardScaler{}, pca: ml.NewPCA(k)},
				Model:  spec.Factory(),
			}
		}
		res, err := modelsel.CrossValidate(factory, X, y, splits)
		if err != nil {
			return nil, fmt.Errorf("core: PCA sweep k=%d: %w", k, err)
		}
		out = append(out, PCAPoint{Components: k, R2: res.MeanTest().R2})
	}
	return out, nil
}

// pcaChain standardizes then projects — PCA on raw features would be
// dominated by large-scale columns such as state_changes.
type pcaChain struct {
	std *ml.StandardScaler
	pca *ml.PCA
}

func (c *pcaChain) Fit(X [][]float64) error {
	if err := c.std.Fit(X); err != nil {
		return err
	}
	return c.pca.Fit(c.std.Transform(X))
}

func (c *pcaChain) Transform(X [][]float64) [][]float64 {
	return c.pca.Transform(c.std.Transform(X))
}

func (c *pcaChain) TransformRow(x []float64) []float64 {
	return c.pca.TransformRow(c.std.TransformRow(x))
}

// BudgetPoint is one injection-budget ablation measurement.
type BudgetPoint struct {
	InjectionsPerFF int
	MeanCI95        float64 // mean Wilson 95% interval width of the targets
	KNNR2           float64 // Table I protocol test R² for the k-NN model
}

// InjectionBudgetAblation re-derives the training targets from campaigns
// with smaller per-FF injection budgets and measures how target noise
// propagates into model quality. The ground-truth (full-budget) campaign
// remains the evaluation reference.
func (s *Study) InjectionBudgetAblation(budgets []int, spec ModelSpec, nSplits int, seed int64) ([]BudgetPoint, error) {
	yRef, err := s.FDR()
	if err != nil {
		return nil, err
	}
	X := s.FeatureRows()
	out := make([]BudgetPoint, 0, len(budgets))
	for _, budget := range budgets {
		jobs := s.Jobs(s.Config.Model, budget, s.Config.CampaignSeed+int64(budget))
		res, err := s.campaign(context.Background(), jobs, "", false)
		if err != nil {
			return nil, fmt.Errorf("core: budget %d campaign: %w", budget, err)
		}
		var widthSum float64
		for ff := range res.FDR {
			lo, hi := fault.WilsonInterval(res.Failures[ff], res.Injections[ff], 1.96)
			widthSum += hi - lo
		}
		// Train on noisy targets, evaluate against the reference.
		splits, err := ml.StratifiedShuffleSplits(res.FDR, nSplits, PaperTrainFrac, PaperStratifyBins, seed)
		if err != nil {
			return nil, err
		}
		var r2sum float64
		for _, sp := range splits {
			trX, trY := ml.Gather(X, res.FDR, sp.Train)
			teX, _ := ml.Gather(X, res.FDR, sp.Test)
			_, teRef := ml.Gather(X, yRef, sp.Test)
			model := spec.Factory()
			if err := model.Fit(trX, trY); err != nil {
				return nil, fmt.Errorf("core: budget %d fit: %w", budget, err)
			}
			r2sum += metrics.R2(teRef, ml.PredictAll(model, teX))
		}
		out = append(out, BudgetPoint{
			InjectionsPerFF: budget,
			MeanCI95:        widthSum / float64(s.NumFFs()),
			KNNR2:           r2sum / float64(len(splits)),
		})
	}
	return out, nil
}
