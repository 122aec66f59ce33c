package ensemble

import (
	"encoding/gob"
	"fmt"
	"math/rand"

	"repro/internal/ml"
	"repro/internal/ml/tree"
)

// RandomForest averages bootstrap-trained CART trees. The fields are also
// the model's gob payload; Members are the fitted trees.
type RandomForest struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// MaxDepth bounds each tree (0 = unbounded).
	MaxDepth int
	// MinSamplesLeaf forwards to the base trees (default 1).
	MinSamplesLeaf int
	// FeatureFrac is the fraction of features examined per split
	// (default 1/3, the regression folklore default).
	FeatureFrac float64
	// Seed drives bootstrap sampling and feature subsampling.
	Seed int64

	Members []*tree.Regressor
	Fitted  bool
}

// NewForest returns a forest with the given size and depth bound.
func NewForest(trees, maxDepth int, seed int64) *RandomForest {
	return &RandomForest{Trees: trees, MaxDepth: maxDepth, Seed: seed}
}

// Fit trains every member on a bootstrap resample.
func (f *RandomForest) Fit(X [][]float64, y []float64) error {
	if err := ml.CheckXY(X, y); err != nil {
		return err
	}
	if f.Trees <= 0 {
		f.Trees = 100
	}
	if f.FeatureFrac <= 0 || f.FeatureFrac > 1 {
		f.FeatureFrac = 1.0 / 3
	}
	rng := rand.New(rand.NewSource(f.Seed))
	n := len(X)
	numFeat := len(X[0])
	subset := int(f.FeatureFrac * float64(numFeat))
	if subset < 1 {
		subset = 1
	}
	f.Members = make([]*tree.Regressor, f.Trees)
	bx := make([][]float64, n)
	by := make([]float64, n)
	for t := 0; t < f.Trees; t++ {
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = X[j]
			by[i] = y[j]
		}
		treeRng := rand.New(rand.NewSource(rng.Int63()))
		member := &tree.Regressor{
			MaxDepth:       f.MaxDepth,
			MinSamplesLeaf: f.MinSamplesLeaf,
			FeatureOrder: func(nf int) []int {
				perm := treeRng.Perm(nf)
				return perm[:subset]
			},
		}
		if err := member.Fit(bx, by); err != nil {
			return fmt.Errorf("ml/ensemble: tree %d: %w", t, err)
		}
		f.Members[t] = member
	}
	f.Fitted = true
	return nil
}

// Predict averages the member predictions.
func (f *RandomForest) Predict(x []float64) float64 {
	if !f.Fitted {
		return 0
	}
	var s float64
	for _, m := range f.Members {
		s += m.Predict(x)
	}
	return s / float64(len(f.Members))
}

// GradientBoosting fits shallow trees to residuals with shrinkage — the
// "boosting algorithms" the paper's future work names, in its least-squares
// form. The fields are also the model's gob payload; Base and StageTrees are
// the fitted mean and residual trees.
type GradientBoosting struct {
	// Stages is the number of boosting rounds (default 200).
	Stages int
	// LearningRate is the shrinkage factor (default 0.1).
	LearningRate float64
	// MaxDepth bounds each stage's tree (default 3).
	MaxDepth int
	// MinSamplesLeaf forwards to the stage trees (default 1).
	MinSamplesLeaf int
	// Subsample, in (0,1], trains each stage on a random row fraction
	// (stochastic gradient boosting); 1 uses all rows. Default 1.
	Subsample float64
	// Seed drives subsampling.
	Seed int64

	Base       float64
	StageTrees []*tree.Regressor
	Fitted     bool
}

// NewBoosting returns a boosted ensemble with the given configuration.
func NewBoosting(stages int, learningRate float64, maxDepth int) *GradientBoosting {
	return &GradientBoosting{Stages: stages, LearningRate: learningRate, MaxDepth: maxDepth}
}

// Fit runs the boosting iterations.
func (g *GradientBoosting) Fit(X [][]float64, y []float64) error {
	return g.fit(X, y, new(tree.Orders))
}

// fit is Fit with the sort orders stages fitting all of X share (nil: none);
// subsampled stages see other rows each time and never use them.
func (g *GradientBoosting) fit(X [][]float64, y []float64, orders *tree.Orders) error {
	if err := ml.CheckXY(X, y); err != nil {
		return err
	}
	if g.Stages <= 0 {
		g.Stages = 200
	}
	if g.LearningRate <= 0 {
		g.LearningRate = 0.1
	}
	if g.MaxDepth <= 0 {
		g.MaxDepth = 3
	}
	if g.Subsample <= 0 || g.Subsample > 1 {
		g.Subsample = 1
	}
	rng := rand.New(rand.NewSource(g.Seed))
	n := len(X)

	var s float64
	for _, v := range y {
		s += v
	}
	g.Base = s / float64(n)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = g.Base
	}
	resid := make([]float64, n)
	g.StageTrees = make([]*tree.Regressor, 0, g.Stages)
	rows := int(g.Subsample * float64(n))
	if rows < 1 {
		rows = 1
	}
	sx := make([][]float64, rows)
	sy := make([]float64, rows)
	for t := 0; t < g.Stages; t++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		stage := &tree.Regressor{MaxDepth: g.MaxDepth, MinSamplesLeaf: g.MinSamplesLeaf}
		if rows == n {
			if err := stage.FitShared(X, resid, orders); err != nil {
				return fmt.Errorf("ml/ensemble: stage %d: %w", t, err)
			}
		} else {
			for i := 0; i < rows; i++ {
				j := rng.Intn(n)
				sx[i] = X[j]
				sy[i] = resid[j]
			}
			if err := stage.Fit(sx, sy); err != nil {
				return fmt.Errorf("ml/ensemble: stage %d: %w", t, err)
			}
		}
		for i := range pred {
			pred[i] += g.LearningRate * stage.Predict(X[i])
		}
		g.StageTrees = append(g.StageTrees, stage)
	}
	g.Fitted = true
	return nil
}

// Predict sums the base value and shrunken stage contributions.
func (g *GradientBoosting) Predict(x []float64) float64 {
	if !g.Fitted {
		return 0
	}
	s := g.Base
	for _, stage := range g.StageTrees {
		s += g.LearningRate * stage.Predict(x)
	}
	return s
}

var (
	_ ml.Regressor = (*RandomForest)(nil)
	_ ml.Regressor = (*GradientBoosting)(nil)
)

func init() {
	gob.RegisterName("ffr/ensemble.RandomForest", &RandomForest{})
	gob.RegisterName("ffr/ensemble.GradientBoosting", &GradientBoosting{})
}

// The wire types are the ensembles without their methods: what gob sees of
// one. Member trees travel through tree.Regressor's codec, which checks each.
type (
	forest   RandomForest
	boosting GradientBoosting
)

// GobEncode exports the configuration and every member tree.
func (f *RandomForest) GobEncode() ([]byte, error) { return ml.GobState((*forest)(f)) }

// GobDecode restores a random forest.
func (f *RandomForest) GobDecode(data []byte) error { return ml.UngobState(data, (*forest)(f), nil) }

// GobEncode exports the configuration, base value and stage trees.
func (g *GradientBoosting) GobEncode() ([]byte, error) { return ml.GobState((*boosting)(g)) }

// GobDecode restores a gradient-boosting ensemble.
func (g *GradientBoosting) GobDecode(data []byte) error {
	return ml.UngobState(data, (*boosting)(g), nil)
}
