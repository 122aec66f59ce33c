package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/plan"
)

// AdaptiveConfig assembles an active-learning campaign over a Study: the
// planner's own configuration, with the study as its Target. The zero value
// is usable: committee strategy, the paper's k-NN estimate model, the
// study's telemetry and the plan package's default budgets (half the pool
// at ~1/16-pool rounds).
type AdaptiveConfig = plan.Config

// CommitteeMembers returns the model zoo the committee strategy measures
// disagreement across: the paper's linear least squares and k-NN plus the
// Section V decision tree — three cheap, deterministic, structurally
// different learners — named as in ModelNames.
func CommitteeMembers() []plan.Member {
	var members []plan.Member
	for _, spec := range append(PaperModels()[:2], ExtendedModels()[0]) {
		members = append(members, plan.Member{Name: spec.Name, Factory: spec.Factory})
	}
	return members
}

// NewAdaptiveStudy wires an active-learning planner onto a study: instead
// of RunGroundTruth's exhaustive flat campaign, the returned loop measures
// only the flip-flops its strategy asks for, round by round, on real
// partial campaigns of the study's runner path (golden trace and snapshots
// reused). The study is the loop's Target, so cfg.Target must be nil; a nil
// Strategy is committee, a nil Model the paper's k-NN, and nil Metrics and
// Logger are the study's.
func NewAdaptiveStudy(s *Study, cfg AdaptiveConfig) (*plan.Loop, error) {
	if cfg.Target != nil {
		return nil, fmt.Errorf("core: adaptive study: the study is the target; Target must be nil")
	}
	cfg.Target = &studyTarget{study: s}
	if cfg.Strategy == nil {
		cfg.Strategy = plan.Committee{Members: CommitteeMembers()}
	}
	if cfg.Model == nil {
		knn := PaperModels()[1] // the paper's best model
		cfg.Model, cfg.ModelName = knn.Factory, knn.Name
	}
	if cfg.Metrics == nil {
		cfg.Metrics = s.Config.Metrics
	}
	if cfg.Logger == nil {
		cfg.Logger = s.Config.Logger
	}
	loop, err := plan.NewLoop(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: adaptive study: %w", err)
	}
	return loop, nil
}

// studyTarget adapts a Study to the planner's injection backend: every round
// is a partial campaign on the study's incremental runner path, and — when
// the loop checkpoints — on a checkpointed fault.Runner, so a mid-round
// interruption resumes from the runner's own chunk state and a re-derived
// round plan must fingerprint-match it.
type studyTarget struct {
	study *Study
}

func (t *studyTarget) NumFFs() int                 { return t.study.NumFFs() }
func (t *studyTarget) FeatureRows() [][]float64    { return t.study.FeatureRows() }
func (t *studyTarget) InjectionsPerFF() int        { return t.study.Config.InjectionsPerFF }
func (t *studyTarget) CampaignFingerprint() uint64 { return t.study.Golden.Fingerprint() }

func (t *studyTarget) RunRound(ctx context.Context, ffs []int, checkpointPath string, resume bool) (*fault.Result, error) {
	jobs, err := t.study.planFor(ffs)
	if err != nil {
		return nil, err
	}
	return t.study.campaign(ctx, jobs, checkpointPath, resume && checkpointPath != "")
}

// planFor extracts the given targets' jobs from the study's full injection
// plan — the same subset rule RunPartialCampaign applies, so a flip-flop's
// measured counts are bit-identical no matter which round (or which
// campaign) measures it. The plan is target-major with InjectionsPerFF jobs
// per target, so target t's jobs are one slice of it. The lowest index
// outside [0, NumTargets), if any, is an error.
func (s *Study) planFor(ffs []int) ([]fault.Job, error) {
	all := s.Jobs(s.Config.Model, s.Config.InjectionsPerFF, s.Config.CampaignSeed)
	per := s.Config.InjectionsPerFF
	targets := slices.Compact(slices.Sorted(slices.Values(ffs)))
	jobs := make([]fault.Job, 0, len(targets)*per)
	for _, t := range targets {
		if t < 0 || t >= len(all)/per {
			return nil, fmt.Errorf("core: injection target %d out of [0,%d)", t, len(all)/per)
		}
		jobs = append(jobs, all[t*per:(t+1)*per]...)
	}
	return jobs, nil
}

// replayTarget serves round measurements straight from a completed
// ground-truth campaign instead of re-simulating them: each flip-flop's
// first k recorded job outcomes (fault.Result.FailedJobs). This is exact,
// not an approximation: a round's plan is the per-FF subset of the full plan
// (planFor), every job's outcome is a deterministic function of (job, golden
// trace), and the equivalence suite pins that partial campaigns reproduce
// ground-truth counts bit-identically. The plan is target-major and i.i.d.,
// so a flip-flop's first k jobs are a uniform sample of k injections; at
// k = InjectionsPerFF the replay is the whole recorded measurement.
// Evaluation protocols use it to sweep many strategies and budgets against
// one already-measured campaign at zero simulation cost.
type replayTarget struct {
	studyTarget
	k int
}

func (t *replayTarget) RunRound(ctx context.Context, ffs []int, checkpointPath string, resume bool) (*fault.Result, error) {
	n, per, bits := t.study.NumFFs(), t.study.Config.InjectionsPerFF, t.study.Campaign.FailedJobs
	res := &fault.Result{FDR: make([]float64, n), Failures: make([]int, n), Injections: make([]int, n)}
	for _, ff := range ffs {
		for j := ff * per; j < ff*per+t.k; j++ {
			res.Failures[ff] += int(bits[j/64] >> (j % 64) & 1)
		}
		res.Injections[ff] = t.k
		res.FDR[ff] = float64(res.Failures[ff]) / float64(t.k)
		res.TotalRuns += t.k
	}
	return res, nil
}

// AdaptiveOutcome is one strategy's result in an adaptive-vs-full
// comparison.
type AdaptiveOutcome struct {
	// Strategy is the acquisition strategy name.
	Strategy string
	// Rounds, Converged, MeasuredFFs and Injections describe the loop run.
	Rounds      int
	Converged   bool
	MeasuredFFs int
	Injections  int
	// InjectionFrac is Injections over the full-campaign pool cost — the
	// paper-level headline is reaching full-campaign quality at ≤ 0.5.
	InjectionFrac float64
	// R2 and Tau score the loop's final model on the held-out evaluation
	// flip-flops against their ground-truth FDR.
	R2  float64
	Tau float64
	// FFR is the loop's final circuit-level estimate.
	FFR float64
}

// AdaptiveComparison is the outcome of CompareAdaptiveStrategies: a shared
// full-campaign baseline, the thin spread and one outcome per strategy.
type AdaptiveComparison struct {
	// PoolFFs and EvalFFs are the sizes of the measurable pool and the
	// held-out evaluation set.
	PoolFFs, EvalFFs int
	// FullR2 and FullTau score the full-campaign baseline: the same model
	// trained on every pool flip-flop, evaluated on the held-out set.
	FullR2, FullTau float64
	// TrueFFR is the ground-truth circuit FFR (mean per-FF FDR).
	TrueFFR float64
	// Thin spreads the same injections over the whole pool: every pool
	// flip-flop measured once at the budget fraction of its injections (at
	// least one), no selection.
	Thin AdaptiveOutcome
	// Outcomes holds one entry per requested strategy, in request order.
	Outcomes []AdaptiveOutcome
}

// CompareAdaptiveStrategies measures whether active selection reaches
// full-campaign estimation quality at a fraction of the injections, and
// whether it beats spreading those injections thinly. The protocol: draw
// one stratified 50 % split; the train side is the pool the planner may
// measure, the test side is held out for evaluation. The baseline trains
// spec on the whole pool (the "full campaign"); each strategy gets
// budgetFrac of the pool, spread over `rounds` adaptive rounds after an
// initial draw of a third of the budget; the thin row measures the whole
// pool in one round at budgetFrac of each flip-flop's injections. Every row
// replays measurements from the ground-truth campaign (see replayTarget),
// so the comparison is exact and simulates nothing. Ground truth must be
// available.
func (s *Study) CompareAdaptiveStrategies(strategies []string, spec ModelSpec, budgetFrac float64, rounds int, seed int64) (*AdaptiveComparison, error) {
	if !(0 < budgetFrac && budgetFrac <= 1) {
		return nil, fmt.Errorf("core: adaptive budget fraction %v out of (0,1]", budgetFrac)
	}
	if rounds < 1 {
		return nil, fmt.Errorf("core: adaptive comparison needs >= 1 round, got %d", rounds)
	}
	y, splits, err := s.splits(1, PaperTrainFrac, seed)
	if err != nil {
		return nil, err
	}
	pool, eval := splits[0].Train, splits[0].Test
	X := s.FeatureRows()
	evalX, evalY := ml.Gather(X, y, eval)

	full := spec.Factory()
	poolX, poolY := ml.Gather(X, y, pool)
	if err := full.Fit(poolX, poolY); err != nil {
		return nil, fmt.Errorf("core: full-campaign baseline fit: %w", err)
	}
	fullPred := ml.PredictAll(full, evalX)

	var trueFFR float64
	for _, v := range y {
		trueFFR += v
	}
	cmp := &AdaptiveComparison{
		PoolFFs: len(pool),
		EvalFFs: len(eval),
		FullR2:  metrics.R2(evalY, fullPred),
		FullTau: metrics.KendallTau(evalY, fullPred),
		TrueFFR: trueFFR / float64(len(y)),
	}

	// run is one row: a planner loop on the replay at k injections per
	// flip-flop, scored on the held-out set.
	per := s.Config.InjectionsPerFF
	run := func(name string, strategy plan.Strategy, k, init, perRound, maxRounds, budget int) (AdaptiveOutcome, error) {
		loop, err := plan.NewLoop(plan.Config{
			Target:    &replayTarget{studyTarget{s}, k},
			Strategy:  strategy,
			Model:     spec.Factory,
			ModelName: spec.Name,
			Seed:      seed,
			Pool:      pool,
			InitFFs:   init,
			RoundFFs:  perRound,
			MaxRounds: maxRounds,
			BudgetFFs: budget,
		})
		if err != nil {
			return AdaptiveOutcome{}, fmt.Errorf("core: %s loop: %w", name, err)
		}
		res, err := loop.Run()
		if err != nil {
			return AdaptiveOutcome{}, fmt.Errorf("core: %s loop: %w", name, err)
		}
		pred := ml.PredictAll(res.Model, evalX)
		return AdaptiveOutcome{
			Strategy:      name,
			Rounds:        len(res.Rounds),
			Converged:     res.Converged,
			MeasuredFFs:   len(res.Measured),
			Injections:    res.TotalInjections,
			InjectionFrac: float64(res.TotalInjections) / float64(len(pool)*per),
			R2:            metrics.R2(evalY, pred),
			Tau:           metrics.KendallTau(evalY, pred),
			FFR:           res.FFR,
		}, nil
	}
	// Floors, so the spent fraction never exceeds the requested one above
	// the minimum of one injection per flip-flop (thin) or two flip-flops.
	if cmp.Thin, err = run("thin", plan.Random{}, max(1, int(budgetFrac*float64(per))),
		len(pool), len(pool), 1, len(pool)); err != nil {
		return nil, err
	}
	budget := max(2, int(budgetFrac*float64(len(pool))))
	// A third of the budget seeds the model, the rest is spent adaptively —
	// the more rounds, the more often the acquisition re-aims.
	init := (budget + 2) / 3
	perRound := max(1, (budget-init+rounds-1)/rounds)
	for _, name := range strategies {
		strategy, err := plan.New(name, CommitteeMembers())
		if err != nil {
			return nil, err
		}
		o, err := run(name, strategy, per, init, perRound, rounds+1, budget)
		if err != nil {
			return nil, err
		}
		cmp.Outcomes = append(cmp.Outcomes, o)
	}
	return cmp, nil
}
