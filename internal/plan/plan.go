package plan

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fault"
)

// Target is the injection backend a Loop drives: it exposes the per-flip-flop
// feature matrix the strategies score, and runs one round's injection
// campaign for a selected flip-flop set. core.Study adapters implement it.
type Target interface {
	// NumFFs is the number of flip-flops under study.
	NumFFs() int
	// FeatureRows is the per-FF feature matrix (aliased; callers must not
	// modify).
	FeatureRows() [][]float64
	// InjectionsPerFF is the per-flip-flop SEU budget of one round.
	InjectionsPerFF() int
	// CampaignFingerprint digests the campaign identity (golden trace);
	// loop checkpoints record it so a loop cannot resume against a
	// different circuit, workload or stimulus.
	CampaignFingerprint() uint64
	// RunRound fault-injects exactly the given flip-flops and returns the
	// per-FF failure/injection counts. When checkpointPath is non-empty the
	// round must run on a checkpointed fault.Runner; resume is set only for
	// the in-flight round of a resumed loop, where the runner must pick up
	// the path's chunk state if it exists — the machinery that makes a
	// mid-round interruption resumable and rejects a re-derived plan that
	// is not bit-identical. On fresh rounds resume is false, so a stale
	// file from an unrelated earlier run is overwritten, never adopted.
	RunRound(ctx context.Context, ffs []int, checkpointPath string, resume bool) (*fault.Result, error)
}

// State is the planner's view of the campaign so far — everything a Strategy
// may condition its selection on. Selections must be pure functions of the
// State (plus the strategy's own configuration): that purity is what makes
// checkpoint resume bit-identical.
type State struct {
	// X is the full per-FF feature matrix (aliased, read-only).
	X [][]float64
	// Pool is the ascending set of flip-flops eligible for measurement.
	Pool []int
	// Measured flags per FF whether it has been injected.
	Measured []bool
	// FDR, Failures and Injections are per-FF measured results, valid where
	// Measured is true.
	FDR        []float64
	Failures   []int
	Injections []int
	// Predicted holds the raw predictions for the unmeasured flip-flops of
	// the estimate model named PredictedBy, fitted on TrainData; the loop
	// sets it to nil whenever it applies a measurement.
	Predicted   []float64
	PredictedBy string
	// Round is the zero-based index of the round being selected.
	Round int
	// Seed drives every stochastic choice of the loop and its strategies.
	Seed int64
}

// MeasuredCount returns how many pool flip-flops have been measured.
func (st *State) MeasuredCount() int {
	n := 0
	for _, ff := range st.Pool {
		if st.Measured[ff] {
			n++
		}
	}
	return n
}

// Unmeasured returns the ascending pool flip-flops not yet measured.
func (st *State) Unmeasured() []int {
	out := make([]int, 0, len(st.Pool))
	for _, ff := range st.Pool {
		if !st.Measured[ff] {
			out = append(out, ff)
		}
	}
	return out
}

// MeasuredSet returns the ascending pool flip-flops already measured.
func (st *State) MeasuredSet() []int {
	out := make([]int, 0, len(st.Pool))
	for _, ff := range st.Pool {
		if st.Measured[ff] {
			out = append(out, ff)
		}
	}
	return out
}

// TrainData gathers the measured feature rows and FDR targets.
func (st *State) TrainData() ([][]float64, []float64) {
	idx := st.MeasuredSet()
	X := make([][]float64, len(idx))
	y := make([]float64, len(idx))
	for k, ff := range idx {
		X[k] = st.X[ff]
		y[k] = st.FDR[ff]
	}
	return X, y
}

// rng derives the round's random source. The golden-ratio increment keeps
// per-round streams decorrelated while staying a pure function of
// (seed, round).
func (st *State) rng() *rand.Rand {
	const goldenGamma = int64(-0x61C8864680B583EB) // 2^64 / φ as int64
	return rand.New(rand.NewSource(st.Seed + int64(st.Round)*goldenGamma))
}

// Strategy selects where the next injection batch is spent. Implementations
// must be deterministic in (State, own configuration) and must only return
// unmeasured pool flip-flops, at most n, in ascending order.
type Strategy interface {
	// Name identifies the strategy in checkpoints and CLIs.
	Name() string
	// Select returns the next flip-flops to measure.
	Select(st *State, n int) ([]int, error)
}

// Strategy names accepted by New.
const (
	StrategyRandom    = "random"
	StrategyCommittee = "committee"
)

// StrategyNames lists every built-in strategy name.
func StrategyNames() []string {
	return []string{StrategyRandom, StrategyCommittee}
}

// New resolves a built-in strategy by name. committee is the model zoo the
// committee strategy measures disagreement across; random ignores it.
func New(name string, committee []Member) (Strategy, error) {
	switch name {
	case StrategyRandom:
		return Random{}, nil
	case StrategyCommittee:
		if len(committee) < 2 {
			return nil, fmt.Errorf("plan: committee strategy needs at least 2 member factories, have %d", len(committee))
		}
		return Committee{Members: committee}, nil
	}
	return nil, fmt.Errorf("plan: unknown strategy %q (valid: %v)", name, StrategyNames())
}

// Random is the baseline acquisition strategy: a seeded uniform draw from
// the unmeasured pool. Every informed strategy is judged against it.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return StrategyRandom }

// Select implements Strategy.
func (Random) Select(st *State, n int) ([]int, error) {
	return randomDraw(st, n), nil
}

// randomDraw is the shared seeded uniform draw — also the cold start of the
// model-based strategies, so every strategy opens with the identical first
// batch and comparisons measure acquisition, not initialization.
func randomDraw(st *State, n int) []int {
	cand := st.Unmeasured()
	rng := st.rng()
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	if n > len(cand) {
		n = len(cand)
	}
	sel := append([]int(nil), cand[:n]...)
	sort.Ints(sel)
	return sel
}

// topByScore returns the n highest-scoring candidates, breaking score ties
// toward the lower flip-flop index, in ascending index order.
func topByScore(cand []int, score []float64, n int) []int {
	order := make([]int, len(cand))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] > score[order[b]] })
	if n > len(order) {
		n = len(order)
	}
	sel := make([]int, n)
	for i := 0; i < n; i++ {
		sel[i] = cand[order[i]]
	}
	sort.Ints(sel)
	return sel
}
