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
	if err := ml.CheckXY(X, y); err != nil {
		return CVResult{}, err
	}
	if len(splits) == 0 {
		return CVResult{}, fmt.Errorf("%w: no splits", ml.ErrBadData)
	}
	res := CVResult{TestScores: make([]metrics.Scores, len(splits))}
	for si, sp := range splits {
		trX, trY := ml.Gather(X, y, sp.Train)
		teX, teY := ml.Gather(X, y, sp.Test)
		model := factory()
		if err := model.Fit(trX, trY); err != nil {
			return CVResult{}, fmt.Errorf("modelsel: split %d: %w", si, err)
		}
		res.TestScores[si] = metrics.Evaluate(teY, ml.PredictAll(model, teX))
	}
	return res, nil
}

// Params is a hyperparameter assignment.
type Params map[string]float64

// Clone copies the assignment.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

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

// score evaluates an assignment by mean test R² over the splits.
func score(build Build, p Params, X [][]float64, y []float64, splits []ml.Split) (float64, error) {
	res, err := CrossValidate(func() ml.Regressor { return build(p) }, X, y, splits)
	if err != nil {
		return 0, err
	}
	return res.MeanTest().R2, nil
}

// RandomSearch samples n assignments from the space and returns the best by
// mean test R² (the paper's first tuning stage).
func RandomSearch(build Build, space map[string]Range, n int, X [][]float64, y []float64, splits []ml.Split, seed int64) (SearchResult, error) {
	if n < 1 {
		return SearchResult{}, fmt.Errorf("%w: n=%d", ml.ErrBadData, n)
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 0, len(space))
	for k := range space {
		names = append(names, k)
	}
	sort.Strings(names) // deterministic sampling order
	best := SearchResult{BestScore: math.Inf(-1)}
	for i := 0; i < n; i++ {
		p := make(Params, len(space))
		for _, k := range names {
			p[k] = space[k].Sample(rng)
		}
		s, err := score(build, p, X, y, splits)
		if err != nil {
			return SearchResult{}, err
		}
		best.Evaluated++
		if s > best.BestScore {
			best.BestScore = s
			best.Best = p
		}
	}
	return best, nil
}

// GridSearch exhaustively evaluates the cartesian product of the given
// value lists (the paper's refinement stage around the random-search
// optimum).
func GridSearch(build Build, grid map[string][]float64, X [][]float64, y []float64, splits []ml.Split) (SearchResult, error) {
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
	best := SearchResult{BestScore: math.Inf(-1)}
	idx := make([]int, len(names))
	for {
		p := make(Params, len(names))
		for i, k := range names {
			p[k] = grid[k][idx[i]]
		}
		s, err := score(build, p, X, y, splits)
		if err != nil {
			return SearchResult{}, err
		}
		best.Evaluated++
		if s > best.BestScore {
			best.BestScore = s
			best.Best = p
		}
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
			return best, nil
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
