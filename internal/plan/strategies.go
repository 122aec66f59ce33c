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
	// Members are the committee model factories (at least two).
	Members []ml.Factory
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
	for i, factory := range c.Members {
		m := factory()
		if err := m.Fit(trX, trY); err != nil {
			return nil, fmt.Errorf("plan: committee member %d fit: %w", i, err)
		}
		p := make([]float64, len(cand))
		for k, ff := range cand {
			p[k] = m.Predict(st.X[ff])
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
