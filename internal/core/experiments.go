package core

import (
	"fmt"
	"strings"

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
// splits at the given training size, scores averaged over splits. The
// Section V feature table is the same protocol over model variants
// (FeatureVariants).
func (s *Study) Table1(models []ModelSpec, nSplits int, trainFrac float64, seed int64) ([]TableRow, error) {
	y, splits, err := s.splits(nSplits, trainFrac, seed)
	if err != nil {
		return nil, err
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

// ColumnsModel is spec behind a front end that keeps only the feature
// columns keep, in the order given: one row of the feature table, called
// name.
func ColumnsModel(name string, spec ModelSpec, keep []int) ModelSpec {
	return ModelSpec{Name: name, Factory: func() ml.Regressor {
		return &ml.Pipeline{Scaler: columns(keep), Model: spec.Factory()}
	}}
}

// FeatureVariants lists the rows of the Section V feature table for spec,
// each a ColumnsModel that keeps the schema order, then the PCA rows: all
// features; without each group; without each near-duplicate family (the six
// prox_* columns, the three bus columns); without each column, in
// features.Names order; and PCA at k = 3, 5, 10, 15, 25.
func FeatureVariants(spec ModelSpec) []ModelSpec {
	names, groups := features.Names(), features.Groups()
	without := func(name string, drop func(j int) bool) ModelSpec {
		var keep []int
		for j := range names {
			if !drop(j) {
				keep = append(keep, j)
			}
		}
		return ColumnsModel(name, spec, keep)
	}
	rows := []ModelSpec{without("all features", func(int) bool { return false })}
	for _, g := range []struct {
		name  string
		group features.Group
	}{
		{"structural", features.GroupStructural},
		{"synthesis", features.GroupSynthesis},
		{"dynamic", features.GroupDynamic},
	} {
		rows = append(rows, without("w/o "+g.name, func(j int) bool { return groups[j] == g.group }))
	}
	rows = append(rows,
		without("w/o prox_*", func(j int) bool { return strings.HasPrefix(names[j], "prox_") }),
		without("w/o bus", func(j int) bool { return strings.Contains(names[j], "bus") }))
	for j, name := range names {
		rows = append(rows, without("w/o "+name, func(k int) bool { return k == j }))
	}
	for _, k := range []int{3, 5, 10, 15, 25} {
		rows = append(rows, PCAModel(spec, k))
	}
	return rows
}

// columns is a Scaler that keeps the listed columns; it learns nothing.
type columns []int

func (c columns) Fit([][]float64) error { return nil }

func (c columns) Transform(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, x := range X {
		out[i] = c.TransformRow(x)
	}
	return out
}

func (c columns) TransformRow(x []float64) []float64 {
	out := make([]float64, len(c))
	for k, j := range c {
		out[k] = x[j]
	}
	return out
}

// PCAModel is spec behind standardization and a PCA keeping k components:
// one row of the dimensionality-reduction direction of Section V. PCA on
// raw features would be dominated by large-scale columns such as
// state_changes, hence the standardization.
func PCAModel(spec ModelSpec, k int) ModelSpec {
	return ModelSpec{Name: fmt.Sprintf("%s, PCA %d", spec.Name, k), Factory: func() ml.Regressor {
		pca := &ml.Pipeline{Scaler: ml.NewPCA(k), Model: spec.Factory()}
		return &ml.Pipeline{Scaler: &ml.StandardScaler{}, Model: pca}
	}}
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
	y, splits, err := s.splits(5, PaperTrainFrac, seed)
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
