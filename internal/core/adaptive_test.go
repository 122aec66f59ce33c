package core

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/obs"
	"repro/internal/plan"
)

// checkAdaptiveHeadline asserts the paper-level claim on one study: at
// seed, the committee strategy alone reaches R² within 0.02 of full-campaign
// training while spending at most half the pool's injections. With
// beatRandom (seed must then be one of 1–5) it also asserts that committee's
// mean R² over seeds 1–5 is above the random control's: the census that
// kept committee as the one informed strategy.
func checkAdaptiveHeadline(t *testing.T, s *Study, label string, seed int64, beatRandom bool) {
	t.Helper()
	seeds := []int64{seed}
	if beatRandom {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	var randomMean, committeeMean float64
	for _, sd := range seeds {
		cmp, err := s.CompareAdaptiveStrategies(plan.StrategyNames(), PaperModels()[1], 0.5, 6, sd)
		if err != nil {
			t.Fatal(err)
		}
		if len(cmp.Outcomes) != 2 || cmp.Outcomes[0].Strategy != plan.StrategyRandom || cmp.Outcomes[1].Strategy != plan.StrategyCommittee {
			t.Fatalf("%s: want the random control then committee: %+v", label, cmp.Outcomes)
		}
		for _, o := range cmp.Outcomes {
			t.Logf("%s seed %d: %-9s measured %d/%d FFs (%.1f%% of injections) R²=%.4f vs full %.4f (gap %+.4f)",
				label, sd, o.Strategy, o.MeasuredFFs, cmp.PoolFFs, 100*o.InjectionFrac, o.R2, cmp.FullR2, cmp.FullR2-o.R2)
			if o.InjectionFrac > 0.5 {
				t.Errorf("%s: %s spent %.3f of the full-campaign injections, budget 0.5",
					label, o.Strategy, o.InjectionFrac)
			}
		}
		random, committee := cmp.Outcomes[0].R2, cmp.Outcomes[1].R2
		if gap := cmp.FullR2 - committee; sd == seed && gap > 0.02 {
			t.Errorf("%s: committee R²=%.4f is %.4f below full-campaign R²=%.4f (tolerance 0.02)",
				label, committee, gap, cmp.FullR2)
		}
		randomMean += random / float64(len(seeds))
		committeeMean += committee / float64(len(seeds))
	}
	if beatRandom && committeeMean <= randomMean {
		t.Errorf("%s: committee mean R² %.4f over seeds 1–5 is not above random's %.4f", label, committeeMean, randomMean)
	}
}

// TestAdaptiveReachesFullCampaignQualityMAC is the headline on the paper's
// DUT: active selection matches full-campaign estimation quality at half the
// injections, and beats random selection on average.
func TestAdaptiveReachesFullCampaignQualityMAC(t *testing.T) {
	checkAdaptiveHeadline(t, smallStudy(t), "mac10ge/loopback", 2, true)
}

// TestAdaptiveReachesFullCampaignQualityCorpus repeats the headline on two
// corpus scenarios, pinning that the budget win is not a MAC artifact.
func TestAdaptiveReachesFullCampaignQualityCorpus(t *testing.T) {
	for _, c := range []struct {
		id         string
		beatRandom bool
	}{{"rrarb/uniform", true}, {"uartser/paced", false}} {
		sc, err := corpus.Find(c.id)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewCorpusStudy(sc, CorpusStudyConfig{Scale: corpus.ScaleSmall, InjectionsPerFF: 32})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunGroundTruth(); err != nil {
			t.Fatal(err)
		}
		checkAdaptiveHeadline(t, s, c.id, 1, c.beatRandom)
	}
}

// adaptiveResumeStudy builds the fixture of the interruption tests: a small
// corpus study with fine-grained campaign chunking so rounds span several
// checkpointable chunks: a 96-job round is a 64-job and a 32-job chunk.
func adaptiveResumeStudy(t *testing.T) *Study {
	t.Helper()
	sc, err := corpus.Find("alupipe/randomops")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCorpusStudy(sc, CorpusStudyConfig{
		Scale:           corpus.ScaleSmall,
		InjectionsPerFF: 8,
		ChunkJobs:       64,
		Workers:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func adaptiveResumeConfig(ckpt string, resume bool) AdaptiveConfig {
	return AdaptiveConfig{
		Seed:    9,
		InitFFs: 12, RoundFFs: 12, BudgetFFs: 36,
		CheckpointPath: ckpt, Resume: resume,
	}
}

// TestAdaptiveStudyResumeBitIdentical interrupts a real adaptive campaign
// mid-round (context cancellation while the round's fault.Runner is between
// chunks) and checks the resumed loop selects bit-identical jobs and lands
// on the same final model fingerprint as an uninterrupted twin.
func TestAdaptiveStudyResumeBitIdentical(t *testing.T) {
	// Uninterrupted reference on its own (deterministically materialized)
	// study.
	refStudy := adaptiveResumeStudy(t)
	refAdaptive, err := NewAdaptiveStudy(refStudy, adaptiveResumeConfig("", false))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refAdaptive.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rounds) < 3 {
		t.Fatalf("fixture too small: %d rounds", len(ref.Rounds))
	}

	// Interrupted run: cancel from the campaign progress callback once
	// round 0 has completed — i.e. in the middle of round 1's campaign.
	ckpt := filepath.Join(t.TempDir(), "adaptive.ffrp")
	s := adaptiveResumeStudy(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var armed atomic.Bool
	s.Config.Progress = func(fault.Progress) {
		if armed.Load() {
			cancel()
		}
	}
	cfg := adaptiveResumeConfig(ckpt, true)
	cfg.OnRound = func(plan.Round) { armed.Store(true) }
	interrupted, err := NewAdaptiveStudy(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interrupted.RunContext(ctx); !errors.Is(err, fault.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want fault.ErrInterrupted", err)
	}

	// Resume on the same study, interference removed.
	s.Config.Progress = nil
	resumed, err := NewAdaptiveStudy(s, adaptiveResumeConfig(ckpt, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Rounds) != len(ref.Rounds) {
		t.Fatalf("resumed loop ran %d rounds, reference %d", len(res.Rounds), len(ref.Rounds))
	}
	for i := range ref.Rounds {
		if !reflect.DeepEqual(res.Rounds[i].Selected, ref.Rounds[i].Selected) {
			t.Errorf("round %d selected %v, reference %v", i, res.Rounds[i].Selected, ref.Rounds[i].Selected)
		}
		if res.Rounds[i].FFR != ref.Rounds[i].FFR {
			t.Errorf("round %d FFR %v, reference %v", i, res.Rounds[i].FFR, ref.Rounds[i].FFR)
		}
	}
	if !reflect.DeepEqual(res.Measured, ref.Measured) {
		t.Error("resumed loop measured a different flip-flop set")
	}
	if res.ModelFingerprint != ref.ModelFingerprint {
		t.Errorf("final model fingerprint %x, reference %x", res.ModelFingerprint, ref.ModelFingerprint)
	}
	if res.EstimateFingerprint != ref.EstimateFingerprint {
		t.Errorf("estimate fingerprint %x, reference %x", res.EstimateFingerprint, ref.EstimateFingerprint)
	}
	if res.FFR != ref.FFR {
		t.Errorf("final FFR %v, reference %v", res.FFR, ref.FFR)
	}
}

// TestReplayTargetMatchesPartialCampaign pins the equivalence every replayed
// protocol relies on: serving a round from the ground-truth campaign's
// per-job outcomes — each flip-flop's first k — is bit-identical to
// simulating exactly those jobs, on every corpus scenario under SEU, MBU
// and stuck-at, at one injection per flip-flop, half of them and all.
func TestReplayTargetMatchesPartialCampaign(t *testing.T) {
	for _, sc := range corpus.List() {
		for _, spec := range []string{"seu", "mbu:3", "stuck0"} {
			t.Run(sc.ID()+"/"+spec, func(t *testing.T) {
				model, err := fault.ParseModel(spec)
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewCorpusStudy(sc, CorpusStudyConfig{Scale: corpus.ScaleSmall, InjectionsPerFF: 8, Model: model})
				if err != nil {
					t.Fatal(err)
				}
				truth, err := s.RunGroundTruth()
				if err != nil {
					t.Fatal(err)
				}
				per := s.Config.InjectionsPerFF
				if slices.Max(truth.Failures) == 0 {
					t.Fatal("no job failed: the fixture cannot tell a replay from a wrong one")
				}
				for ff, want := range truth.Failures {
					got := 0
					for j := ff * per; j < (ff+1)*per; j++ {
						got += int(truth.FailedJobs[j/64] >> (j % 64) & 1)
					}
					if got != want {
						t.Fatalf("FF %d: %d per-job failure bits, %d failures", ff, got, want)
					}
				}
				all := s.Jobs(model, per, s.Config.CampaignSeed)
				ffs := make([]int, s.NumFFs())
				for i := range ffs {
					ffs[i] = i
				}
				for _, k := range []int{1, per / 2, per} {
					var jobs []fault.Job
					for _, ff := range ffs {
						jobs = append(jobs, all[ff*per:ff*per+k]...)
					}
					want, err := s.campaign(context.Background(), jobs, "", false)
					if err != nil {
						t.Fatal(err)
					}
					got, err := (&replayTarget{studyTarget{s}, k}).RunRound(context.Background(), ffs, "", false)
					if err != nil {
						t.Fatal(err)
					}
					for _, ff := range ffs {
						if got.Failures[ff] != want.Failures[ff] || got.Injections[ff] != want.Injections[ff] ||
							math.Float64bits(got.FDR[ff]) != math.Float64bits(want.FDR[ff]) {
							t.Fatalf("k=%d FF %d: replay %d/%d (FDR %v), simulated %d/%d (FDR %v)", k, ff,
								got.Failures[ff], got.Injections[ff], got.FDR[ff], want.Failures[ff], want.Injections[ff], want.FDR[ff])
						}
					}
				}
			})
		}
	}
}

// TestStudyTargetRunsRealCampaign checks the production adapter measures the
// same counts as the study's partial-campaign path.
func TestStudyTargetRunsRealCampaign(t *testing.T) {
	s := smallStudy(t)
	ffs := []int{3, 17, 42}
	want, err := s.RunPartialCampaign(ffs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&studyTarget{study: s}).RunRound(context.Background(), ffs, "", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ff := range ffs {
		if want.Failures[ff] != got.Failures[ff] || want.Injections[ff] != got.Injections[ff] {
			t.Errorf("FF %d: partial %d/%d, target %d/%d",
				ff, want.Failures[ff], want.Injections[ff], got.Failures[ff], got.Injections[ff])
		}
	}
}

// filterPlan is planFor before it sliced the target-major plan: a filter over
// every job of the full plan, kept as the reference.
func filterPlan(s *Study, ffs []int) []fault.Job {
	want := make(map[int]bool, len(ffs))
	for _, ff := range ffs {
		want[ff] = true
	}
	var jobs []fault.Job
	for _, j := range s.Jobs(s.Config.Model, s.Config.InjectionsPerFF, s.Config.CampaignSeed) {
		if want[j.FF] {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// setPlanStudy is the small MAC study with its fault model switched to SET,
// whose injection targets are the combinational cells. A study refuses to be
// built under SET (per-FF features cannot describe its targets), so this one
// only draws plans.
func setPlanStudy(t *testing.T) *Study {
	t.Helper()
	s := *smallStudy(t)
	s.Config.Model = fault.Model{Kind: fault.KindSET}
	if n := s.Config.Model.NumTargets(s.Program); n <= s.NumFFs() {
		t.Fatalf("SET has %d targets on %d flip-flops", n, s.NumFFs())
	}
	return &s
}

func TestPlanForMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range []*Study{smallStudy(t), setPlanStudy(t)} {
		n := s.Config.Model.NumTargets(s.Program)
		for trial := 0; trial < 40; trial++ {
			ffs := make([]int, rng.Intn(30))
			for i := range ffs {
				ffs[i] = rng.Intn(n)
			}
			if len(ffs) > 0 {
				ffs = append(ffs, ffs[rng.Intn(len(ffs))], n-1)
			}
			got, err := s.planFor(ffs)
			if err != nil {
				t.Fatalf("%s %v: %v", s.ScenarioID(), ffs, err)
			}
			if want := filterPlan(s, ffs); !slices.Equal(got, want) {
				t.Fatalf("%s %v: %d jobs, the filter gives %d (or a different order)", s.ScenarioID(), ffs, len(got), len(want))
			}
		}
	}
}

// TestRunPartialCampaignRejectsOutOfRange: an index outside [0, NumTargets)
// used to be dropped, and the campaign ran nothing and reported no error.
func TestRunPartialCampaignRejectsOutOfRange(t *testing.T) {
	s := smallStudy(t)
	n := s.NumFFs()
	res, err := s.RunPartialCampaign([]int{-1, n, n + 7})
	if err == nil {
		t.Fatalf("RunPartialCampaign(-1, %d, %d) ran %d injections and returned no error", n, n+7, res.TotalRuns)
	}
	if !strings.Contains(err.Error(), "target -1 ") {
		t.Errorf("error %q does not name the first bad index", err)
	}
	if _, err := s.RunPartialCampaign([]int{0, n}); err == nil {
		t.Errorf("target %d of %d accepted", n, n)
	}
	if _, err := (&studyTarget{study: s}).RunRound(context.Background(), []int{n}, "", false); err == nil {
		t.Error("a planner round accepted an out-of-range flip-flop")
	}
	set := setPlanStudy(t)
	nt := set.Config.Model.NumTargets(set.Program)
	if _, err := set.planFor([]int{nt - 1, set.NumFFs()}); err != nil {
		t.Errorf("SET combinational targets refused: %v", err)
	}
	if _, err := set.planFor([]int{nt}); err == nil {
		t.Errorf("SET target %d of %d accepted", nt, nt)
	}
}

func TestNewAdaptiveStudyValidation(t *testing.T) {
	s := smallStudy(t)
	if _, err := NewAdaptiveStudy(s, AdaptiveConfig{Resume: true}); err == nil {
		t.Error("Resume without Checkpoint accepted")
	}
	if _, err := NewAdaptiveStudy(s, AdaptiveConfig{Target: &studyTarget{study: s}}); err == nil {
		t.Error("a caller-set Target accepted")
	}
	if len(CommitteeMembers()) < 3 {
		t.Errorf("committee zoo has %d members", len(CommitteeMembers()))
	}
}

// TestAdaptiveStudyDefaults: a zero AdaptiveConfig runs the committee
// strategy with the paper's k-NN estimate model — the same trajectory as
// naming both — and reports to the study's metrics registry and logger.
func TestAdaptiveStudyDefaults(t *testing.T) {
	run := func(cfg AdaptiveConfig, reg *obs.Registry, logger *slog.Logger) *plan.Result {
		t.Helper()
		s := adaptiveResumeStudy(t)
		s.Config.Metrics, s.Config.Logger = reg, logger
		cfg.Seed, cfg.MaxRounds = 9, 3
		loop, err := NewAdaptiveStudy(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := loop.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	reg := obs.NewRegistry()
	var logs bytes.Buffer
	got := run(AdaptiveConfig{}, reg, slog.New(slog.NewTextHandler(&logs, nil)))

	knn := PaperModels()[1]
	want := run(AdaptiveConfig{Strategy: plan.Committee{Members: CommitteeMembers()}, Model: knn.Factory, ModelName: knn.Name}, nil, nil)
	if got.ModelFingerprint != want.ModelFingerprint || got.EstimateFingerprint != want.EstimateFingerprint {
		t.Errorf("zero config: model %016x estimate %016x, committee + k-NN: %016x %016x",
			got.ModelFingerprint, got.EstimateFingerprint, want.ModelFingerprint, want.EstimateFingerprint)
	}
	random := run(AdaptiveConfig{Strategy: plan.Random{}}, nil, nil)
	if random.ModelFingerprint == got.ModelFingerprint {
		t.Error("random and committee measured the same flip-flops: the fixture cannot tell strategies apart")
	}
	tree := ExtendedModels()[0]
	other := run(AdaptiveConfig{Model: tree.Factory, ModelName: tree.Name}, nil, nil)
	if other.EstimateFingerprint == got.EstimateFingerprint {
		t.Error("a tree estimate equals the k-NN one: the fixture cannot tell models apart")
	}

	var text strings.Builder
	reg.WriteText(&text)
	if !strings.Contains(text.String(), "ffr_plan_round 3") {
		t.Errorf("study registry has no ffr_plan_round 3:\n%s", text.String())
	}
	if !strings.Contains(logs.String(), `msg="loop finished" component=plan`) {
		t.Errorf("study logger has no planner record:\n%s", logs.String())
	}
}

func TestCompareAdaptiveValidation(t *testing.T) {
	s := smallStudy(t)
	for _, frac := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := s.CompareAdaptiveStrategies([]string{"random"}, PaperModels()[1], frac, 4, 1); err == nil {
			t.Errorf("budget fraction %v accepted", frac)
		}
	}
	if _, err := s.CompareAdaptiveStrategies([]string{"random"}, PaperModels()[1], 0.5, 0, 1); err == nil {
		t.Error("zero rounds accepted")
	}
	if _, err := s.CompareAdaptiveStrategies([]string{"bogus"}, PaperModels()[1], 0.5, 4, 1); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestThinSpreadRow: the thin row measures every pool flip-flop at the
// budget fraction of its injections, and at the whole budget it is the
// full-campaign baseline: the same pool, rows and counts, so the same R² and
// τ bit for bit.
func TestThinSpreadRow(t *testing.T) {
	s := smallStudy(t)
	for _, c := range []struct {
		frac float64
		k    int
	}{{1, 8}, {0.5, 4}, {0.1, 1}, {0.01, 1}} {
		cmp, err := s.CompareAdaptiveStrategies(nil, PaperModels()[1], c.frac, 6, 3)
		if err != nil {
			t.Fatal(err)
		}
		thin := cmp.Thin
		if thin.Strategy != "thin" || thin.Rounds != 1 || thin.MeasuredFFs != cmp.PoolFFs || thin.Injections != cmp.PoolFFs*c.k {
			t.Errorf("frac %v: thin row %+v, want 1 round over %d FFs at %d injections each", c.frac, thin, cmp.PoolFFs, c.k)
		}
		if c.frac == 1 && (math.Float64bits(thin.R2) != math.Float64bits(cmp.FullR2) ||
			math.Float64bits(thin.Tau) != math.Float64bits(cmp.FullTau) || thin.InjectionFrac != 1) {
			t.Errorf("at the whole budget thin R²=%v τ=%v share %v, full campaign R²=%v τ=%v",
				thin.R2, thin.Tau, thin.InjectionFrac, cmp.FullR2, cmp.FullTau)
		}
	}
}

// prefixCampaign measures each round by simulating every flip-flop's first k
// jobs of the study's plan under the study's fault model: what replayTarget
// at k must reproduce without simulating.
type prefixCampaign struct {
	studyTarget
	model fault.Model
	k     int
}

func (t *prefixCampaign) RunRound(ctx context.Context, ffs []int, checkpointPath string, resume bool) (*fault.Result, error) {
	per := t.study.Config.InjectionsPerFF
	all := t.study.Jobs(t.model, per, t.study.Config.CampaignSeed)
	var jobs []fault.Job
	for _, ff := range ffs {
		jobs = append(jobs, all[ff*per:ff*per+t.k]...)
	}
	return t.study.campaign(ctx, jobs, "", false)
}

// TestInjectionBudgetAblationHonoursStudyModel: the reduced-budget row of
// the budget experiment (CompareAdaptiveStrategies' thin row) on an MBU
// study is the MBU measurement of those injections — not an SEU one scored
// against an MBU ground truth — and the experiment simulates nothing. The
// reference runs the thin row's loop on a target that simulates each pool
// flip-flop's first k MBU jobs on the study's instrumented runner.
func TestInjectionBudgetAblationHonoursStudyModel(t *testing.T) {
	sc, err := corpus.Find("alupipe/randomops")
	if err != nil {
		t.Fatal(err)
	}
	model, err := fault.ParseModel("mbu:3")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := NewCorpusStudy(sc, CorpusStudyConfig{
		Scale: corpus.ScaleSmall, InjectionsPerFF: 8, Model: model, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunGroundTruth(); err != nil {
		t.Fatal(err)
	}
	chunks := reg.Counter("ffr_campaign_chunks_completed_total", "")
	before := chunks.Value()
	const seed, k = 2, 4
	spec := PaperModels()[1]
	cmp, err := s.CompareAdaptiveStrategies(nil, spec, 0.5, 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	if chunks.Value() != before {
		t.Fatalf("the budget experiment simulated %v chunks; it replays the recorded campaign", chunks.Value()-before)
	}

	y, splits, err := s.splits(1, PaperTrainFrac, seed)
	if err != nil {
		t.Fatal(err)
	}
	pool, eval := splits[0].Train, splits[0].Test
	loop, err := plan.NewLoop(plan.Config{
		Target: &prefixCampaign{studyTarget{s}, model, k}, Strategy: plan.Random{},
		Model: spec.Factory, ModelName: spec.Name, Seed: seed, Pool: pool,
		InitFFs: len(pool), RoundFFs: len(pool), MaxRounds: 1, BudgetFFs: len(pool),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if chunks.Value() == before {
		t.Fatal("the reference campaign reported nothing to the study's metrics registry")
	}
	evalX, evalY := ml.Gather(s.FeatureRows(), y, eval)
	wantR2 := metrics.R2(evalY, ml.PredictAll(want.Model, evalX))
	thin := cmp.Thin
	if thin.Injections != want.TotalInjections || math.Float64bits(thin.FFR) != math.Float64bits(want.FFR) ||
		math.Float64bits(thin.R2) != math.Float64bits(wantR2) {
		t.Fatalf("thin row at k=%d: %d injections, FFR %v, R² %v; simulated %s prefix: %d, %v, %v",
			k, thin.Injections, thin.FFR, thin.R2, model, want.TotalInjections, want.FFR, wantR2)
	}
}
