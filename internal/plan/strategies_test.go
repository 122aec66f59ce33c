package plan

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ml"
)

// strategyState builds a State with the given measured set over a synthetic
// feature matrix.
func strategyState(t *testing.T, numFFs int, measured []int, seed int64) (*State, *fakeTarget) {
	t.Helper()
	target := newFakeTarget(numFFs, 10, seed)
	st := &State{
		X:          target.X,
		Pool:       make([]int, numFFs),
		Measured:   make([]bool, numFFs),
		FDR:        make([]float64, numFFs),
		Failures:   make([]int, numFFs),
		Injections: make([]int, numFFs),
		Round:      1,
		Seed:       seed,
	}
	for i := range st.Pool {
		st.Pool[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	for _, ff := range measured {
		st.Measured[ff] = true
		st.FDR[ff] = target.truth[ff] + rng.NormFloat64()*0.02
		st.Injections[ff] = 10
	}
	return st, target
}

func measuredRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// checkSelection asserts the Strategy output contract: ascending, unmeasured,
// within budget.
func checkSelection(t *testing.T, st *State, sel []int, n int) {
	t.Helper()
	if len(sel) > n {
		t.Fatalf("selected %d > budget %d", len(sel), n)
	}
	for i, ff := range sel {
		if st.Measured[ff] {
			t.Errorf("selected already-measured flip-flop %d", ff)
		}
		if i > 0 && sel[i-1] >= ff {
			t.Fatalf("selection not strictly ascending: %v", sel)
		}
	}
}

func TestStrategiesContractAndDeterminism(t *testing.T) {
	for _, name := range StrategyNames() {
		t.Run(name, func(t *testing.T) {
			strategy, err := New(name, testCommittee())
			if err != nil {
				t.Fatal(err)
			}
			st, _ := strategyState(t, 90, measuredRange(30), 5)
			sel, err := strategy.Select(st, 12)
			if err != nil {
				t.Fatal(err)
			}
			if len(sel) != 12 {
				t.Fatalf("selected %d flip-flops, want 12", len(sel))
			}
			checkSelection(t, st, sel, 12)

			st2, _ := strategyState(t, 90, measuredRange(30), 5)
			sel2, err := strategy.Select(st2, 12)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sel, sel2) {
				t.Errorf("selection not deterministic: %v vs %v", sel, sel2)
			}
		})
	}
}

func TestStrategiesColdStartMatchesRandom(t *testing.T) {
	// With no measurements yet, every strategy must make the exact shared
	// random draw, so strategy comparisons share their round 0.
	st, _ := strategyState(t, 60, nil, 9)
	want := randomDraw(st, 10)
	for _, name := range StrategyNames() {
		strategy, err := New(name, testCommittee())
		if err != nil {
			t.Fatal(err)
		}
		st2, _ := strategyState(t, 60, nil, 9)
		got, err := strategy.Select(st2, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s cold start %v differs from random draw %v", name, got, want)
		}
	}
}

func TestCommitteePrefersDisagreement(t *testing.T) {
	// Committee scores are prediction variances; the selected set must carry
	// a higher mean disagreement than the rejected set.
	st, _ := strategyState(t, 120, measuredRange(40), 3)
	c := Committee{Members: testCommittee()}
	sel, err := c.Select(st, 10)
	if err != nil {
		t.Fatal(err)
	}
	selSet := map[int]bool{}
	for _, ff := range sel {
		selSet[ff] = true
	}
	trX, trY := st.TrainData()
	var preds [][]float64
	for _, member := range c.Members {
		m := member.Factory()
		if err := m.Fit(trX, trY); err != nil {
			t.Fatal(err)
		}
		cand := st.Unmeasured()
		p := make([]float64, len(cand))
		for k, ff := range cand {
			p[k] = m.Predict(st.X[ff])
		}
		preds = append(preds, p)
	}
	cand := st.Unmeasured()
	var selVar, otherVar float64
	var nOther int
	for k, ff := range cand {
		v := predictionVariance(preds, k)
		if selSet[ff] {
			selVar += v
		} else {
			otherVar += v
			nOther++
		}
	}
	if selVar/float64(len(sel)) <= otherVar/float64(nOther) {
		t.Errorf("selected mean variance %v not above rejected %v",
			selVar/float64(len(sel)), otherVar/float64(nOther))
	}
}

func TestNewStrategyValidation(t *testing.T) {
	// uncertainty and cluster were strategies once; they are unknown now.
	for _, name := range []string{"nope", "uncertainty", "cluster"} {
		if _, err := New(name, testCommittee()); err == nil {
			t.Errorf("unknown strategy %q accepted", name)
		}
	}
	if _, err := New(StrategyCommittee, testCommittee()[:1]); err == nil {
		t.Error("one-member committee accepted")
	}
}

func TestSelectMoreThanAvailable(t *testing.T) {
	for _, name := range StrategyNames() {
		strategy, err := New(name, testCommittee())
		if err != nil {
			t.Fatal(err)
		}
		st, _ := strategyState(t, 20, measuredRange(15), 8)
		sel, err := strategy.Select(st, 50)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sel) != 5 {
			t.Errorf("%s: selected %d of the 5 remaining", name, len(sel))
		}
	}
}

// TestCommitteeReusesEstimatePredictions: the committee member named like the
// loop's estimate model takes the estimate's predictions and fits nothing, and
// the trajectory is bit-identical to a loop whose estimate has another name,
// so that the member fits the same rows again. The pool leaves flip-flops out,
// so the estimate predicts more of them than the committee scores.
func TestCommitteeReusesEstimatePredictions(t *testing.T) {
	fits := 0
	members := testCommittee()
	members[1].Factory = func() ml.Regressor { fits++; return testModel()() }
	var pool []int
	for ff := 0; ff < 152; ff += 4 {
		pool = append(pool, ff, ff+1, ff+3)
	}
	run := func(modelName string) *Result {
		fits = 0
		return runLoop(t, Config{
			Target: newFakeTarget(152, 20, 4), Strategy: Committee{Members: members},
			Model: testModel(), ModelName: modelName, Seed: 5, Pool: pool, InitFFs: 12, RoundFFs: 8,
		})
	}
	reused := run("knn")
	if fits != 0 {
		t.Errorf("the k-NN member was fitted %d times beside the estimate of the same name", fits)
	}
	refit := run("knn-other")
	if fits != len(refit.Rounds)-1 {
		t.Errorf("the k-NN member was fitted %d times in %d rounds under another estimate name", fits, len(refit.Rounds))
	}
	if len(reused.Rounds) != len(refit.Rounds) {
		t.Fatalf("%d rounds reusing, %d refitting", len(reused.Rounds), len(refit.Rounds))
	}
	for i, r := range reused.Rounds {
		if !reflect.DeepEqual(r.Selected, refit.Rounds[i].Selected) || math.Float64bits(r.FFR) != math.Float64bits(refit.Rounds[i].FFR) {
			t.Errorf("round %d: reusing selected %v (FFR %v), refitting %v (FFR %v)",
				i, r.Selected, r.FFR, refit.Rounds[i].Selected, refit.Rounds[i].FFR)
		}
	}
	if reused.EstimateFingerprint != refit.EstimateFingerprint || reused.ModelFingerprint != refit.ModelFingerprint {
		t.Error("reusing the estimate's predictions changed the result's fingerprints")
	}
}
