package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/ml"
	"repro/internal/ml/knn"
	"repro/internal/ml/linreg"
	"repro/internal/ml/tree"
)

// fakeTarget is a synthetic injection backend: per-FF FDR truth derived from
// a smooth function of two features plus seeded binomial measurement noise.
// RunRound serves counts without simulation, deterministically in the FF set.
type fakeTarget struct {
	X          [][]float64
	truth      []float64
	injections int
	rounds     [][]int // log of RunRound selections
	failAfter  int     // when > 0, RunRound errors after this many rounds
}

func newFakeTarget(numFFs, injections int, seed int64) *fakeTarget {
	rng := rand.New(rand.NewSource(seed))
	t := &fakeTarget{injections: injections}
	for i := 0; i < numFFs; i++ {
		a, b := rng.Float64(), rng.Float64()
		t.X = append(t.X, []float64{a, b, rng.Float64()})
		t.truth = append(t.truth, 0.5*a+0.4*b*b)
	}
	return t
}

func (t *fakeTarget) NumFFs() int                 { return len(t.X) }
func (t *fakeTarget) FeatureRows() [][]float64    { return t.X }
func (t *fakeTarget) InjectionsPerFF() int        { return t.injections }
func (t *fakeTarget) CampaignFingerprint() uint64 { return 0xFACE }

func (t *fakeTarget) RunRound(ctx context.Context, ffs []int, checkpointPath string, resume bool) (*fault.Result, error) {
	if t.failAfter > 0 && len(t.rounds) >= t.failAfter {
		return nil, errors.New("injection backend down")
	}
	t.rounds = append(t.rounds, append([]int(nil), ffs...))
	res := &fault.Result{
		FDR:        make([]float64, len(t.X)),
		Failures:   make([]int, len(t.X)),
		Injections: make([]int, len(t.X)),
	}
	for _, ff := range ffs {
		// Seeded per-FF binomial draw, independent of round partitioning.
		rng := rand.New(rand.NewSource(int64(ff) + 1))
		for k := 0; k < t.injections; k++ {
			if rng.Float64() < t.truth[ff] {
				res.Failures[ff]++
			}
		}
		res.Injections[ff] = t.injections
		res.FDR[ff] = float64(res.Failures[ff]) / float64(t.injections)
		res.TotalRuns += t.injections
	}
	return res, nil
}

func testModel() ml.Factory {
	return func() ml.Regressor {
		return &ml.Pipeline{Scaler: &ml.StandardScaler{}, Model: knn.New(3)}
	}
}

// testCommittee's k-NN member is named "knn", the ModelName the loop tests
// give testModel, so committee loops take the estimate's predictions for it.
func testCommittee() []Member {
	return []Member{
		{"linear", func() ml.Regressor { return &ml.Pipeline{Scaler: &ml.StandardScaler{}, Model: linreg.NewRidge(1e-8)} }},
		{"knn", testModel()},
		{"tree", func() ml.Regressor { return &ml.Pipeline{Scaler: &ml.StandardScaler{}, Model: tree.New(8)} }},
	}
}

func runLoop(t *testing.T, cfg Config) *Result {
	t.Helper()
	loop, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLoopBudgetAndRounds(t *testing.T) {
	target := newFakeTarget(120, 20, 1)
	strategy, err := New(StrategyCommittee, testCommittee())
	if err != nil {
		t.Fatal(err)
	}
	res := runLoop(t, Config{
		Target: target, Strategy: strategy, Model: testModel(), ModelName: "knn",
		Seed: 7, InitFFs: 20, RoundFFs: 10, BudgetFFs: 60,
	})
	if len(res.Measured) != 60 {
		t.Errorf("measured %d flip-flops, budget 60", len(res.Measured))
	}
	if res.TotalInjections != 60*20 {
		t.Errorf("spent %d injections, want %d", res.TotalInjections, 60*20)
	}
	if want := 1 + (60-20+9)/10; len(res.Rounds) != want {
		t.Errorf("ran %d rounds, want %d", len(res.Rounds), want)
	}
	if res.Converged {
		t.Error("loop without tolerances reported convergence")
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.MeasuredFFs != 60 || last.Injections != res.TotalInjections {
		t.Errorf("last round cumulative stats %d/%d do not match result %d/%d",
			last.MeasuredFFs, last.Injections, 60, res.TotalInjections)
	}
	if math.IsNaN(res.FFR) || res.FFR <= 0 || res.FFR >= 1 {
		t.Errorf("implausible FFR estimate %v", res.FFR)
	}
	if res.CIHi-res.CILo <= 0 {
		t.Errorf("degenerate CI (%v, %v)", res.CILo, res.CIHi)
	}
}

func TestLoopConvergenceStopsEarly(t *testing.T) {
	target := newFakeTarget(150, 30, 2)
	res := runLoop(t, Config{
		Target: target, Strategy: Random{}, Model: testModel(), ModelName: "knn",
		Seed: 3, InitFFs: 30, RoundFFs: 10, BudgetFFs: 150, MaxRounds: 16,
		DeltaTol: 0.05, Patience: 2,
	})
	if !res.Converged {
		t.Fatalf("loose tolerance did not converge in %d rounds", len(res.Rounds))
	}
	if len(res.Measured) >= 150 {
		t.Error("converged loop still spent the whole pool")
	}
	// The two last rounds must satisfy the criterion.
	for _, r := range res.Rounds[len(res.Rounds)-2:] {
		if r.Delta > 0.05 {
			t.Errorf("round %d delta %v exceeds tolerance yet loop converged", r.Index, r.Delta)
		}
	}
}

func TestLoopConvergenceCIWidthOnly(t *testing.T) {
	// CIWidthTol must work as the sole criterion (no DeltaTol): the CI of
	// the measured mean shrinks with every round, so a loose width bound
	// stops the loop before the budget runs out.
	target := newFakeTarget(150, 30, 2)
	res := runLoop(t, Config{
		Target: target, Strategy: Random{}, Model: testModel(), ModelName: "knn",
		Seed: 3, InitFFs: 30, RoundFFs: 10, BudgetFFs: 150, MaxRounds: 16,
		CIWidthTol: 0.2, Patience: 2,
	})
	if !res.Converged {
		t.Fatalf("CI-only tolerance did not converge in %d rounds", len(res.Rounds))
	}
	if len(res.Measured) >= 150 {
		t.Error("converged loop still spent the whole pool")
	}
	for _, r := range res.Rounds[len(res.Rounds)-2:] {
		if r.CIHi-r.CILo > 0.2 {
			t.Errorf("round %d CI width %v exceeds tolerance yet loop converged", r.Index, r.CIHi-r.CILo)
		}
	}
}

func TestLoopPoolRestriction(t *testing.T) {
	target := newFakeTarget(80, 10, 4)
	pool := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30}
	res := runLoop(t, Config{
		Target: target, Strategy: Random{}, Model: testModel(), ModelName: "knn",
		Seed: 5, Pool: pool, InitFFs: 4, RoundFFs: 4, BudgetFFs: 8,
	})
	allowed := map[int]bool{}
	for _, ff := range pool {
		allowed[ff] = true
	}
	for _, ff := range res.Measured {
		if !allowed[ff] {
			t.Errorf("measured flip-flop %d outside the pool", ff)
		}
	}
	if len(res.Measured) != 8 {
		t.Errorf("measured %d, budget 8", len(res.Measured))
	}
	if len(res.Estimates) != 80 {
		t.Errorf("estimate vector covers %d FFs, want all 80", len(res.Estimates))
	}
}

func TestLoopDeterminism(t *testing.T) {
	for _, name := range StrategyNames() {
		t.Run(name, func(t *testing.T) {
			run := func() *Result {
				target := newFakeTarget(100, 15, 6)
				strategy, err := New(name, testCommittee())
				if err != nil {
					t.Fatal(err)
				}
				return runLoop(t, Config{
					Target: target, Strategy: strategy, Model: testModel(), ModelName: "knn",
					Seed: 11, InitFFs: 16, RoundFFs: 8, BudgetFFs: 40,
				})
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a.Measured, b.Measured) {
				t.Error("same configuration measured different flip-flops")
			}
			if a.ModelFingerprint != b.ModelFingerprint {
				t.Error("same configuration produced different model fingerprints")
			}
			if a.EstimateFingerprint != b.EstimateFingerprint {
				t.Error("same configuration produced different estimate fingerprints")
			}
		})
	}
}

// TestLoopResumeBitIdentical interrupts a checkpointed loop between rounds
// and checks the resumed run selects the same jobs and lands on the same
// final model fingerprint as an uninterrupted twin.
func TestLoopResumeBitIdentical(t *testing.T) {
	cfgFor := func(target Target, ckpt string) Config {
		strategy, err := New(StrategyCommittee, testCommittee())
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Target: target, Strategy: strategy, Model: testModel(), ModelName: "knn",
			Seed: 13, InitFFs: 16, RoundFFs: 8, BudgetFFs: 48,
			CheckpointPath: ckpt, Resume: ckpt != "",
		}
	}

	// Uninterrupted reference.
	ref := runLoop(t, cfgFor(newFakeTarget(100, 15, 6), ""))

	// Interrupted run: the backend dies after two rounds.
	ckpt := filepath.Join(t.TempDir(), "loop.ffrp")
	broken := newFakeTarget(100, 15, 6)
	broken.failAfter = 2
	loop, err := NewLoop(cfgFor(broken, ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.Run(); err == nil {
		t.Fatal("interrupted loop reported success")
	}

	// Resume on a fresh backend and compare everything observable.
	resumedTarget := newFakeTarget(100, 15, 6)
	loop2, err := NewLoop(cfgFor(resumedTarget, ckpt))
	if err != nil {
		t.Fatal(err)
	}
	res, err := loop2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Measured, ref.Measured) {
		t.Error("resumed loop measured different flip-flops")
	}
	for i := range ref.Rounds {
		if !reflect.DeepEqual(res.Rounds[i].Selected, ref.Rounds[i].Selected) {
			t.Errorf("round %d selection differs after resume", i)
		}
		if res.Rounds[i].FFR != ref.Rounds[i].FFR {
			t.Errorf("round %d FFR %v differs from reference %v", i, res.Rounds[i].FFR, ref.Rounds[i].FFR)
		}
	}
	if res.ModelFingerprint != ref.ModelFingerprint {
		t.Error("resumed loop's final model fingerprint differs")
	}
	if res.EstimateFingerprint != ref.EstimateFingerprint {
		t.Error("resumed loop's estimate fingerprint differs")
	}
	// The resumed run must not have re-injected the checkpointed rounds.
	if got := len(resumedTarget.rounds); got != len(ref.Rounds)-2 {
		t.Errorf("resumed run injected %d rounds, want %d (2 of %d restored)",
			got, len(ref.Rounds)-2, len(ref.Rounds))
	}
	for i, r := range res.Rounds {
		if want := i < 2; r.Resumed != want {
			t.Errorf("round %d Resumed=%v, want %v", i, r.Resumed, want)
		}
	}
}

func TestLoopResumeRejectsForeignConfig(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "loop.ffrp")
	target := newFakeTarget(60, 10, 3)
	base := Config{
		Target: target, Strategy: Random{}, Model: testModel(), ModelName: "knn",
		Seed: 1, InitFFs: 8, RoundFFs: 8, BudgetFFs: 16, CheckpointPath: ckpt,
	}
	runLoop(t, base)
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Seed = 2 },
		func(c *Config) { c.ModelName = "other" },
		func(c *Config) { c.RoundFFs = 4 },
		func(c *Config) { c.BudgetFFs = 32 },
		func(c *Config) { c.Strategy = Committee{Members: testCommittee()} },
	} {
		cfg := base
		cfg.Resume = true
		mutate(&cfg)
		loop, err := NewLoop(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loop.Run(); !errors.Is(err, ErrLoopCheckpointMismatch) {
			t.Errorf("foreign configuration resumed without mismatch error (got %v)", err)
		}
	}
}

func TestLoopCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loop.ffrp")
	ck := &loopCheckpoint{
		Strategy: "committee", Model: "knn", Seed: 5, InjectionsPerFF: 17,
		NumFFs: 99, CampaignHash: 0xAB, FeaturesHash: 0xCD, PoolHash: 0xEF,
		InitFFs: 4, RoundFFs: 2, MaxRounds: 9, BudgetFFs: 40,
		DeltaTol: 0.01, CIWidthTol: 0.2, Patience: 3,
		Rounds: []roundRecord{
			{Selected: []int{1, 5}, Failures: []int{2, 0}, Injections: []int{17, 17}},
			{Selected: []int{9}, Failures: []int{17}, Injections: []int{17}},
		},
	}
	if err := saveLoopCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := loadLoopCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, ck)
	}
}

func TestLoopCheckpointRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"empty":     "",
		"not-json":  "hello world\ngarbage",
		"bad-magic": `{"magic":"something else","version":1}` + "\n",
	}
	i := 0
	for name, content := range cases {
		path := filepath.Join(dir, fmt.Sprintf("ck%d", i))
		i++
		if err := writeFile(path, content); err != nil {
			t.Fatal(err)
		}
		if _, err := loadLoopCheckpoint(path); !errors.Is(err, ErrLoopCheckpointCorrupt) {
			t.Errorf("%s: got %v, want ErrLoopCheckpointCorrupt", name, err)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
