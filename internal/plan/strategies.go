package plan

import (
	"fmt"

	"repro/internal/ml"
)

// Committee is query-by-committee acquisition: every member of the model zoo
// trains on the measured flip-flops, and the next batch goes to the
// unmeasured flip-flops the members disagree about most (highest population
// variance of the per-FF predictions). Disagreement concentrates exactly
// where the feature→FDR mapping is underdetermined by the evidence so far.
type Committee struct {
	// Members are the committee models (at least two).
	Members []Member
}

// Member is one committee model. A member named like the estimate model
// (Config.ModelName) takes State.Predicted instead of fitting again.
type Member struct {
	Name    string
	Factory ml.Factory
}

// Name implements Strategy.
func (Committee) Name() string { return StrategyCommittee }

// Select implements Strategy. With no measured data yet it falls back to the
// shared seeded random draw.
func (c Committee) Select(st *State, n int) ([]int, error) {
	if len(c.Members) < 2 {
		return nil, fmt.Errorf("plan: committee needs at least 2 members, have %d", len(c.Members))
	}
	if st.MeasuredCount() == 0 {
		return randomDraw(st, n), nil
	}
	trX, trY := st.TrainData()
	cand := st.Unmeasured()
	preds := make([][]float64, 0, len(c.Members))
	for i, member := range c.Members {
		predict := func(ff int) float64 { return st.Predicted[ff] }
		if member.Name == "" || member.Name != st.PredictedBy || st.Predicted == nil {
			m := member.Factory()
			if err := m.Fit(trX, trY); err != nil {
				return nil, fmt.Errorf("plan: committee member %d fit: %w", i, err)
			}
			predict = func(ff int) float64 { return m.Predict(st.X[ff]) }
		}
		p := make([]float64, len(cand))
		for k, ff := range cand {
			p[k] = predict(ff)
		}
		preds = append(preds, p)
	}
	score := make([]float64, len(cand))
	for k := range cand {
		score[k] = predictionVariance(preds, k)
	}
	return topByScore(cand, score, n), nil
}

// predictionVariance is the population variance of column k across the
// prediction matrix rows.
func predictionVariance(preds [][]float64, k int) float64 {
	var mean float64
	for _, p := range preds {
		mean += p[k]
	}
	mean /= float64(len(preds))
	var v float64
	for _, p := range preds {
		d := p[k] - mean
		v += d * d
	}
	return v / float64(len(preds))
}
