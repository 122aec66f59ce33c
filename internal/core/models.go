package core

import (
	"fmt"
	"strings"

	"repro/internal/ml"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/knn"
	"repro/internal/ml/linreg"
	"repro/internal/ml/mlp"
	"repro/internal/ml/modelsel"
	"repro/internal/ml/svr"
	"repro/internal/ml/tree"
)

// ModelSpec names a regression model with its paper hyperparameters and the
// scaling it requires.
type ModelSpec struct {
	// Name matches the paper's Table I row labels.
	Name string
	// Factory builds a fresh pipeline instance.
	Factory ml.Factory
	// Tunable describes the hyperparameter space for the random+grid
	// search experiment; nil for models without hyperparameters.
	Tunable *TunableSpec
}

// TunableSpec defines a model's search space (Section III-A's random search
// followed by grid refinement).
type TunableSpec struct {
	Space map[string]modelsel.Range
	Build modelsel.Build
	// Score scores a search stage's assignments of the models Build makes.
	Score modelsel.Scorer
	// Log marks parameters refined on a log scale by the grid stage.
	Log map[string]bool
}

// scaled wraps a model in a standardization pipeline; k-NN and SVR need it,
// and it does not hurt the linear model.
func scaled(m ml.Regressor) ml.Regressor {
	return &ml.Pipeline{Scaler: &ml.StandardScaler{}, Model: m}
}

// LinearModel is the paper's Linear Least Squares regressor; ridge with a
// tiny lambda keeps rank-deficient training subsets (constant columns in a
// small stratified draw) solvable without changing the fit measurably.
func LinearModel() ml.Regressor { return scaled(linreg.NewRidge(1e-8)) }

// KNNModel is the paper's tuned k-NN: k=3, Manhattan distance,
// inverse-distance weighting.
func KNNModel() ml.Regressor { return scaled(knn.New(3)) }

// SVRModel is the paper's tuned SVR: RBF kernel, C=3.5, γ=0.055, ε=0.025.
func SVRModel() ml.Regressor { return scaled(svr.New(3.5, 0.055, 0.025)) }

func knnBuild(p modelsel.Params) ml.Regressor { return scaled(knn.New(int(p["k"]))) }

func svrBuild(p modelsel.Params) ml.Regressor { return scaled(svr.New(p["C"], p["gamma"], 0.025)) }

// knnPredict is k-NN's batch of models for modelsel.Batched: one scaler fit
// and one training set serve all of a stage's k, and knn's PredictEachK
// predicts every test row for each k from one distance scan. The predictions
// are those of knnBuild's pipelines, bit for bit.
func knnPredict(ps []modelsel.Params, trX [][]float64, trY []float64, teX [][]float64) ([][]float64, error) {
	ks := make([]int, len(ps))
	for i, p := range ps {
		ks[i] = int(p["k"])
	}
	m := knn.New(1) // PredictEachK takes its k from ks
	pipe := ml.Pipeline{Scaler: &ml.StandardScaler{}, Model: m}
	if err := pipe.Fit(trX, trY); err != nil {
		return nil, err
	}
	return m.PredictEachK(pipe.Scaler.Transform(teX), ks)
}

// PaperModels returns the three Table I rows in paper order.
func PaperModels() []ModelSpec {
	return []ModelSpec{
		{
			Name:    "Linear Least Squares",
			Factory: LinearModel,
		},
		{
			Name:    "k-NN",
			Factory: KNNModel,
			Tunable: &TunableSpec{
				Space: map[string]modelsel.Range{
					"k": {Min: 1, Max: 20, Integer: true},
				},
				Build: knnBuild,
				Score: modelsel.Batched(knnPredict),
			},
		},
		{
			Name:    "SVR w/ RBF Kernel",
			Factory: SVRModel,
			Tunable: &TunableSpec{
				Space: map[string]modelsel.Range{
					"C":     {Min: 0.1, Max: 100, Log: true},
					"gamma": {Min: 1e-3, Max: 1, Log: true},
				},
				Build: svrBuild,
				Score: modelsel.CrossValidated(svrBuild),
				Log:   map[string]bool{"C": true, "gamma": true},
			},
		},
	}
}

// ExtendedModels returns the future-work models of Section V, configured
// with study defaults.
func ExtendedModels() []ModelSpec {
	return []ModelSpec{
		{
			Name:    "Decision Tree",
			Factory: func() ml.Regressor { return scaled(tree.New(8)) },
		},
		{
			Name:    "Random Forest",
			Factory: func() ml.Regressor { return scaled(ensemble.NewForest(80, 12, 1)) },
		},
		{
			Name:    "Gradient Boosting",
			Factory: func() ml.Regressor { return scaled(ensemble.NewBoosting(150, 0.1, 3)) },
		},
		{
			Name: "MLP",
			Factory: func() ml.Regressor {
				m := mlp.New([]int{64, 32}, 7)
				m.Epochs = 150
				return scaled(m)
			},
		},
	}
}

// ModelNames lists every resolvable model name (paper order, then the
// Section V extensions) — the valid -model values of the cmd tools.
func ModelNames() []string {
	specs := append(PaperModels(), ExtendedModels()...)
	names := make([]string, len(specs))
	for i, spec := range specs {
		names[i] = spec.Name
	}
	return names
}

// FindModel resolves a model by Table I name across paper and extended
// specs.
func FindModel(name string) (ModelSpec, error) {
	for _, spec := range append(PaperModels(), ExtendedModels()...) {
		if spec.Name == name {
			return spec, nil
		}
	}
	return ModelSpec{}, fmt.Errorf("core: unknown model %q (valid: %s)",
		name, strings.Join(ModelNames(), ", "))
}
