package modelsel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/ml"
	"repro/internal/ml/metrics"
)

// CVResult aggregates per-split evaluation.
type CVResult struct {
	// TestScores holds one entry per split.
	TestScores []metrics.Scores
}

// MeanTest averages the test scores over splits.
func (r CVResult) MeanTest() metrics.Scores {
	var acc metrics.Scores
	if len(r.TestScores) == 0 {
		return acc
	}
	for _, s := range r.TestScores {
		acc = acc.Add(s)
	}
	return acc.Scale(1 / float64(len(r.TestScores)))
}

// CrossValidate trains a fresh model per split and evaluates all five paper
// metrics on the split's test partition.
func CrossValidate(factory ml.Factory, X [][]float64, y []float64, splits []ml.Split) (CVResult, error) {
	res, err := crossValidate(1, func(trX [][]float64, trY []float64, teX [][]float64) ([][]float64, error) {
		pred, err := fitPredict(factory(), trX, trY, teX)
		return [][]float64{pred}, err
	}, X, y, splits)
	if err != nil {
		return CVResult{}, err
	}
	return res[0], nil
}

// fitPredict fits model to the training rows and predicts the test rows.
func fitPredict(model ml.Regressor, trX [][]float64, trY []float64, teX [][]float64) ([]float64, error) {
	if err := model.Fit(trX, trY); err != nil {
		return nil, err
	}
	return ml.PredictAll(model, teX), nil
}

// crossValidate evaluates n models on every split: predict trains them on
// the split's training partition and returns each one's predictions of its
// test partition, in order.
func crossValidate(n int, predict func(trX [][]float64, trY []float64, teX [][]float64) ([][]float64, error),
	X [][]float64, y []float64, splits []ml.Split) ([]CVResult, error) {
	if err := ml.CheckXY(X, y); err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("%w: no splits", ml.ErrBadData)
	}
	res := make([]CVResult, n)
	for i := range res {
		res[i].TestScores = make([]metrics.Scores, len(splits))
	}
	for si, sp := range splits {
		trX, trY := ml.Gather(X, y, sp.Train)
		teX, teY := ml.Gather(X, y, sp.Test)
		preds, err := predict(trX, trY, teX)
		if err != nil {
			return nil, fmt.Errorf("modelsel: split %d: %w", si, err)
		}
		for i, pred := range preds {
			res[i].TestScores[si] = metrics.Evaluate(teY, pred)
		}
	}
	return res, nil
}

// Params is a hyperparameter assignment.
type Params map[string]float64

// Range is a sampling interval for one hyperparameter.
type Range struct {
	Min, Max float64
	// Log samples log-uniformly (for scale parameters like C and gamma).
	Log bool
	// Integer rounds samples to integers (for k, depth, ...).
	Integer bool
}

// Sample draws one value.
func (r Range) Sample(rng *rand.Rand) float64 {
	var v float64
	if r.Log {
		lo, hi := math.Log(r.Min), math.Log(r.Max)
		v = math.Exp(lo + rng.Float64()*(hi-lo))
	} else {
		v = r.Min + rng.Float64()*(r.Max-r.Min)
	}
	if r.Integer {
		v = math.Round(v)
	}
	return v
}

// Build constructs a model from a hyperparameter assignment.
type Build func(Params) ml.Regressor

// SearchResult is the outcome of a hyperparameter search.
type SearchResult struct {
	Best      Params
	BestScore float64 // mean test R² of the best assignment
	Evaluated int
}

// Scorer returns the mean test R² over the splits of each assignment, in
// order. A search hands it all of a stage's assignments at once, so that a
// model can share work between them; each score must have the bits
// CrossValidate gives the model its assignment builds.
type Scorer func(ps []Params, X [][]float64, y []float64, splits []ml.Split) ([]float64, error)

// Batched is the Scorer of the models predict trains: on each split,
// predict trains the models of the assignments ps on the training partition
// and returns each one's predictions of the test partition, in order.
func Batched(predict func(ps []Params, trX [][]float64, trY []float64, teX [][]float64) ([][]float64, error)) Scorer {
	return func(ps []Params, X [][]float64, y []float64, splits []ml.Split) ([]float64, error) {
		res, err := crossValidate(len(ps), func(trX [][]float64, trY []float64, teX [][]float64) ([][]float64, error) {
			return predict(ps, trX, trY, teX)
		}, X, y, splits)
		if err != nil {
			return nil, err
		}
		scores := make([]float64, len(ps))
		for i, r := range res {
			scores[i] = r.MeanTest().R2
		}
		return scores, nil
	}
}

// CrossValidated is the generic Scorer: a model of its own per assignment,
// as CrossValidate trains it.
func CrossValidated(build Build) Scorer {
	return Batched(func(ps []Params, trX [][]float64, trY []float64, teX [][]float64) ([][]float64, error) {
		preds := make([][]float64, len(ps))
		for i, p := range ps {
			var err error
			if preds[i], err = fitPredict(build(p), trX, trY, teX); err != nil {
				return nil, err
			}
		}
		return preds, nil
	})
}

// pick scores a stage's assignments as one batch and returns the first of
// the best by mean test R².
func pick(score Scorer, ps []Params, X [][]float64, y []float64, splits []ml.Split) (SearchResult, error) {
	scores, err := score(ps, X, y, splits)
	if err != nil {
		return SearchResult{}, err
	}
	best := SearchResult{BestScore: math.Inf(-1), Evaluated: len(ps)}
	for i, s := range scores {
		if s > best.BestScore {
			best.BestScore = s
			best.Best = ps[i]
		}
	}
	return best, nil
}

// RandomSearch samples n assignments from the space and returns the best by
// mean test R² (the paper's first tuning stage).
func RandomSearch(score Scorer, space map[string]Range, n int, X [][]float64, y []float64, splits []ml.Split, seed int64) (SearchResult, error) {
	if n < 1 {
		return SearchResult{}, fmt.Errorf("%w: n=%d", ml.ErrBadData, n)
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 0, len(space))
	for k := range space {
		names = append(names, k)
	}
	sort.Strings(names) // deterministic sampling order
	ps := make([]Params, n)
	for i := range ps {
		ps[i] = make(Params, len(space))
		for _, k := range names {
			ps[i][k] = space[k].Sample(rng)
		}
	}
	return pick(score, ps, X, y, splits)
}

// GridSearch exhaustively evaluates the cartesian product of the given
// value lists (the paper's refinement stage around the random-search
// optimum).
func GridSearch(score Scorer, grid map[string][]float64, X [][]float64, y []float64, splits []ml.Split) (SearchResult, error) {
	names := make([]string, 0, len(grid))
	for k := range grid {
		if len(grid[k]) == 0 {
			return SearchResult{}, fmt.Errorf("%w: empty grid for %q", ml.ErrBadData, k)
		}
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return SearchResult{}, fmt.Errorf("%w: empty grid", ml.ErrBadData)
	}
	var ps []Params
	idx := make([]int, len(names))
	for {
		p := make(Params, len(names))
		for i, k := range names {
			p[k] = grid[k][idx[i]]
		}
		ps = append(ps, p)
		// Advance the mixed-radix counter.
		carry := len(names) - 1
		for carry >= 0 {
			idx[carry]++
			if idx[carry] < len(grid[names[carry]]) {
				break
			}
			idx[carry] = 0
			carry--
		}
		if carry < 0 {
			return pick(score, ps, X, y, splits)
		}
	}
}

// RefineGrid builds a grid around a center value for the paper's
// random-then-grid procedure: points per parameter spaced by factor (log
// scale) or step (linear), clipped to positive values for log scales.
func RefineGrid(center Params, logScale map[string]bool, points int, factor float64) map[string][]float64 {
	grid := make(map[string][]float64, len(center))
	half := points / 2
	for k, c := range center {
		vals := make([]float64, 0, points)
		for i := -half; i <= half; i++ {
			if logScale[k] {
				vals = append(vals, c*math.Pow(factor, float64(i)))
			} else {
				vals = append(vals, c+float64(i)*factor)
			}
		}
		grid[k] = vals
	}
	return grid
}

// LearningPoint is one training-size measurement of a learning curve.
type LearningPoint struct {
	TrainFrac  float64
	TrainScore float64 // mean train R² over splits
	TestScore  float64 // mean test R² over splits
}

// LearningCurve reproduces the paper's Figures 2b/3b/4b: for every training
// fraction, each split's training portion is subsampled to the fraction,
// the model retrained, and train/test R² recorded (scikit-learn
// learning_curve semantics).
func LearningCurve(factory ml.Factory, X [][]float64, y []float64, fracs []float64, splits []ml.Split, seed int64) ([]LearningPoint, error) {
	if err := ml.CheckXY(X, y); err != nil {
		return nil, err
	}
	if len(fracs) == 0 || len(splits) == 0 {
		return nil, fmt.Errorf("%w: empty fractions or splits", ml.ErrBadData)
	}
	rng := rand.New(rand.NewSource(seed))
	points := make([]LearningPoint, 0, len(fracs))
	for _, frac := range fracs {
		if frac <= 0 || frac > 1 {
			return nil, fmt.Errorf("%w: fraction %v out of (0,1]", ml.ErrBadData, frac)
		}
		var trainSum, testSum float64
		folds := 0
		for _, sp := range splits {
			k := int(frac*float64(len(sp.Train)) + 0.5)
			if k < 2 {
				k = 2
			}
			if k > len(sp.Train) {
				k = len(sp.Train)
			}
			sub := append([]int(nil), sp.Train...)
			rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			sub = sub[:k]
			trX, trY := ml.Gather(X, y, sub)
			teX, teY := ml.Gather(X, y, sp.Test)
			model := factory()
			if err := model.Fit(trX, trY); err != nil {
				return nil, fmt.Errorf("modelsel: learning curve frac %v: %w", frac, err)
			}
			trainSum += metrics.R2(trY, ml.PredictAll(model, trX))
			testSum += metrics.R2(teY, ml.PredictAll(model, teX))
			folds++
		}
		points = append(points, LearningPoint{
			TrainFrac:  frac,
			TrainScore: trainSum / float64(folds),
			TestScore:  testSum / float64(folds),
		})
	}
	return points, nil
}
