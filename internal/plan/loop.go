package plan

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"math"
	"os"
	"sort"

	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/obs"
	"repro/internal/persist"
)

// Config parameterizes a Loop. Target, Strategy and Model are required;
// every budget knob has a sensible default.
type Config struct {
	// Target is the injection backend the loop drives.
	Target Target
	// Strategy picks where each round's batch is spent.
	Strategy Strategy
	// Model builds the FFR estimate model retrained after every round; it
	// is also the model the final Result carries.
	Model ml.Factory
	// ModelName tags the model in checkpoints; a resumed loop must be
	// configured with the same name.
	ModelName string
	// Seed drives every stochastic choice: the random draws of the random
	// strategy and of committee's cold start.
	Seed int64
	// Pool restricts measurement to these flip-flops (ascending, deduped by
	// the loop); nil means every flip-flop. Evaluation protocols use it to
	// hold out a test set the planner can never touch.
	Pool []int
	// InitFFs is the round-0 batch size; 0 means RoundFFs.
	InitFFs int
	// RoundFFs is the per-round batch size; 0 means ~1/16 of the pool
	// (at least 1).
	RoundFFs int
	// MaxRounds caps the number of rounds; 0 means DefaultMaxRounds.
	MaxRounds int
	// BudgetFFs caps the total measured flip-flops; 0 means half the pool —
	// the headline budget at which active selection should match
	// full-campaign quality.
	BudgetFFs int
	// DeltaTol and CIWidthTol are the convergence criteria; each is active
	// when > 0 and the loop stops early once every active criterion holds
	// for Patience consecutive rounds. DeltaTol bounds the round-over-round
	// change of the FFR estimate; CIWidthTol bounds the width of the
	// measured-FDR mean's confidence interval (metrics.MeanCI at 95 %).
	// With both zero the loop always runs to its budget.
	DeltaTol   float64
	CIWidthTol float64
	// Patience is how many consecutive rounds must satisfy the convergence
	// criteria; 0 means DefaultPatience.
	Patience int
	// CheckpointPath enables loop checkpointing: the loop state is saved
	// here after every round, and round r's in-flight campaign checkpoints
	// to "<CheckpointPath>.round<r>" via fault.Runner. "" disables both.
	CheckpointPath string
	// Resume loads CheckpointPath (if it exists) and fast-forwards the
	// completed rounds instead of re-injecting them. Requires
	// CheckpointPath.
	Resume bool
	// OnRound, when non-nil, is invoked after every completed (or resumed)
	// round.
	OnRound func(Round)
	// Metrics optionally receives the ffr_plan_* per-round gauges (round,
	// measured FFs, injections spent, FFR estimate, CI width, delta); nil
	// disables planner metrics.
	Metrics *obs.Registry
	// Logger optionally receives structured per-round records; nil
	// disables logging.
	Logger *slog.Logger
}

// DefaultMaxRounds caps adaptive loops that never meet their convergence
// criteria.
const DefaultMaxRounds = 32

// DefaultPatience is how many consecutive converged rounds end the loop.
const DefaultPatience = 2

// Round reports one completed planner round.
type Round struct {
	// Index is the zero-based round number.
	Index int
	// Selected are the flip-flops measured this round (ascending).
	Selected []int
	// Resumed marks rounds restored from a loop checkpoint.
	Resumed bool
	// MeasuredFFs and Injections are cumulative through this round.
	MeasuredFFs int
	Injections  int
	// FFR is the circuit-level estimate after retraining: the mean per-FF
	// FDR over every flip-flop, measured values where available and model
	// predictions (clamped to [0,1]) elsewhere.
	FFR float64
	// CILo and CIHi bound the mean measured FDR (metrics.MeanCI, 95 %).
	CILo, CIHi float64
	// Delta is |FFR − previous round's FFR|; +Inf on round 0.
	Delta float64
}

// Result is the outcome of an adaptive campaign.
type Result struct {
	// Rounds is the per-round trajectory.
	Rounds []Round
	// Converged reports whether the loop stopped on its convergence
	// criteria (as opposed to exhausting budget, rounds or pool).
	Converged bool
	// Measured lists every measured flip-flop (ascending).
	Measured []int
	// TotalInjections is the number of SEU runs spent.
	TotalInjections int
	// FFR, CILo and CIHi are the final estimate and its interval.
	FFR, CILo, CIHi float64
	// Estimates is the per-FF FDR estimate vector (measured values where
	// available, clamped predictions elsewhere).
	Estimates []float64
	// Model is the final estimate model, fitted on every measured FF.
	Model ml.Regressor
	// ModelFingerprint digests the final training set — two loops that
	// measured identical flip-flops with identical outcomes fingerprint
	// equal, which is how the resume tests pin bit-identical restarts.
	ModelFingerprint uint64
	// EstimateFingerprint digests the per-FF estimate vector (the model's
	// observable behavior).
	EstimateFingerprint uint64
}

// Loop is the active-learning campaign driver; see the package comment for
// the protocol. Build one with NewLoop, run it with Run.
type Loop struct {
	cfg     Config
	pool    []int
	metrics *planMetrics
	log     *slog.Logger
}

// NewLoop validates the configuration and applies defaults.
func NewLoop(cfg Config) (*Loop, error) {
	if cfg.Target == nil || cfg.Strategy == nil || cfg.Model == nil {
		return nil, fmt.Errorf("plan: loop needs a target, a strategy and a model factory")
	}
	if cfg.Resume && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("plan: Resume requires a CheckpointPath")
	}
	if cfg.DeltaTol < 0 || cfg.CIWidthTol < 0 {
		return nil, fmt.Errorf("plan: negative convergence tolerance")
	}
	numFFs := cfg.Target.NumFFs()
	pool := cfg.Pool
	if pool == nil {
		pool = make([]int, numFFs)
		for i := range pool {
			pool[i] = i
		}
	} else {
		pool = append([]int(nil), pool...)
		sort.Ints(pool)
		dedup := pool[:0]
		for i, ff := range pool {
			if ff < 0 || ff >= numFFs {
				return nil, fmt.Errorf("plan: pool flip-flop %d out of [0,%d)", ff, numFFs)
			}
			if i > 0 && ff == pool[i-1] {
				continue
			}
			dedup = append(dedup, ff)
		}
		pool = dedup
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("plan: empty flip-flop pool")
	}
	if cfg.RoundFFs <= 0 {
		cfg.RoundFFs = (len(pool) + 15) / 16
	}
	if cfg.InitFFs <= 0 {
		cfg.InitFFs = cfg.RoundFFs
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if cfg.BudgetFFs <= 0 {
		cfg.BudgetFFs = (len(pool) + 1) / 2
	}
	if cfg.BudgetFFs > len(pool) {
		cfg.BudgetFFs = len(pool)
	}
	if cfg.Patience <= 0 {
		cfg.Patience = DefaultPatience
	}
	l := &Loop{cfg: cfg, pool: pool, log: obs.Component(cfg.Logger, "plan")}
	if cfg.Metrics != nil {
		l.metrics = newPlanMetrics(cfg.Metrics)
	}
	return l, nil
}

// Run executes the loop to completion; Run is RunContext with a background
// context.
func (l *Loop) Run() (*Result, error) {
	return l.RunContext(context.Background())
}

// RunContext executes the loop: select → inject → retrain → converge?, one
// round at a time. On context cancellation the in-flight round's campaign
// checkpoint and the loop checkpoint (when configured) are flushed and the
// error wraps fault.ErrInterrupted; a later RunContext with Resume set picks
// up bit-identically.
func (l *Loop) RunContext(ctx context.Context) (*Result, error) {
	cfg := l.cfg
	st := &State{
		X:          cfg.Target.FeatureRows(),
		Pool:       l.pool,
		Measured:   make([]bool, cfg.Target.NumFFs()),
		FDR:        make([]float64, cfg.Target.NumFFs()),
		Failures:   make([]int, cfg.Target.NumFFs()),
		Injections: make([]int, cfg.Target.NumFFs()),
		Seed:       cfg.Seed,
	}
	if len(st.X) != cfg.Target.NumFFs() {
		return nil, fmt.Errorf("plan: %d feature rows for %d flip-flops", len(st.X), cfg.Target.NumFFs())
	}

	res := &Result{}
	var records []roundRecord
	if cfg.Resume {
		ck, err := loadLoopCheckpoint(cfg.CheckpointPath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume; run from scratch.
		case err != nil:
			return nil, err
		default:
			if err := l.matchCheckpoint(ck); err != nil {
				return nil, err
			}
			records = ck.Rounds
		}
	}
	// The round after the replayed ones is the one a mid-round interruption
	// left in flight: only it may adopt an existing runner checkpoint.
	resumedRounds := len(records)

	// Replay checkpointed rounds, then keep selecting live ones.
	streak := 0
	prevFFR := math.NaN()
	for {
		st.Round = len(res.Rounds)
		converged := streak >= cfg.Patience && st.Round > 0
		if converged || st.Round >= cfg.MaxRounds {
			res.Converged = converged
			break
		}
		measured := st.MeasuredCount()
		n := cfg.RoundFFs
		if st.Round == 0 {
			n = cfg.InitFFs
		}
		if n > cfg.BudgetFFs-measured {
			n = cfg.BudgetFFs - measured
		}
		if n <= 0 {
			break
		}

		var rnd Round
		if st.Round < len(records) {
			rec := records[st.Round]
			if len(rec.Selected) != len(rec.Failures) || len(rec.Selected) != len(rec.Injections) {
				return nil, fmt.Errorf("plan: checkpoint round %d is inconsistent", st.Round)
			}
			for k, ff := range rec.Selected {
				if ff < 0 || ff >= len(st.Measured) || st.Measured[ff] {
					return nil, fmt.Errorf("plan: checkpoint round %d re-measures flip-flop %d", st.Round, ff)
				}
				l.applyMeasurement(st, ff, rec.Failures[k], rec.Injections[k])
			}
			rnd = Round{Index: st.Round, Selected: rec.Selected, Resumed: true}
		} else {
			sel, err := l.selectBatch(st, n)
			if err != nil {
				return nil, err
			}
			if len(sel) == 0 {
				break
			}
			fr, err := cfg.Target.RunRound(ctx, sel, l.roundCheckpointPath(st.Round),
				cfg.Resume && st.Round == resumedRounds)
			if err != nil {
				return nil, fmt.Errorf("plan: round %d: %w", st.Round, err)
			}
			rec := roundRecord{Selected: sel}
			for _, ff := range sel {
				rec.Failures = append(rec.Failures, fr.Failures[ff])
				rec.Injections = append(rec.Injections, fr.Injections[ff])
				l.applyMeasurement(st, ff, fr.Failures[ff], fr.Injections[ff])
			}
			records = append(records, rec)
			rnd = Round{Index: st.Round, Selected: sel}
		}

		// Retrain and estimate; the replayed path runs the identical code,
		// so a resumed trajectory is bit-identical to an uninterrupted one.
		if err := l.estimate(st, res); err != nil {
			return nil, fmt.Errorf("plan: round %d estimate: %w", st.Round, err)
		}
		rnd.MeasuredFFs = st.MeasuredCount()
		rnd.Injections = totalInjections(st)
		rnd.FFR, rnd.CILo, rnd.CIHi = res.FFR, res.CILo, res.CIHi
		rnd.Delta = math.Inf(1)
		if !math.IsNaN(prevFFR) {
			rnd.Delta = math.Abs(res.FFR - prevFFR)
		}
		prevFFR = res.FFR
		res.Rounds = append(res.Rounds, rnd)

		if !rnd.Resumed && cfg.CheckpointPath != "" {
			if err := saveLoopCheckpoint(cfg.CheckpointPath, l.checkpoint(records)); err != nil {
				return nil, err
			}
			// The round's campaign checkpoint is folded into the loop
			// checkpoint now; drop the spent file.
			os.Remove(l.roundCheckpointPath(st.Round))
		}
		l.metrics.observeRound(rnd)
		log := l.log
		if !math.IsInf(rnd.Delta, 1) {
			// Round 0 has no delta, and JSON no +Inf.
			log = log.With("delta", rnd.Delta)
		}
		log.Info("round complete",
			"round", rnd.Index,
			"selected", len(rnd.Selected),
			"resumed", rnd.Resumed,
			"measured_ffs", rnd.MeasuredFFs,
			"injections", rnd.Injections,
			"ffr", rnd.FFR,
			"ci_width", rnd.CIHi-rnd.CILo)
		if cfg.OnRound != nil {
			cfg.OnRound(rnd)
		}

		active := cfg.DeltaTol > 0 || cfg.CIWidthTol > 0
		deltaOK := cfg.DeltaTol <= 0 || rnd.Delta <= cfg.DeltaTol
		ciOK := cfg.CIWidthTol <= 0 || rnd.CIHi-rnd.CILo <= cfg.CIWidthTol
		if active && deltaOK && ciOK {
			streak++
		} else {
			streak = 0
		}
	}

	if st.MeasuredCount() == 0 {
		return nil, fmt.Errorf("plan: loop measured no flip-flops (budget %d, rounds %d)",
			cfg.BudgetFFs, cfg.MaxRounds)
	}
	l.metrics.observeConverged(res.Converged)
	l.log.Info("loop finished",
		"rounds", len(res.Rounds),
		"converged", res.Converged,
		"measured_ffs", st.MeasuredCount(),
		"injections", totalInjections(st))
	// No measurement follows a round's estimate, so the last round's model,
	// estimate vector, FFR and CI are already the result's.
	res.Measured = st.MeasuredSet()
	res.TotalInjections = totalInjections(st)
	res.ModelFingerprint = persist.DataFingerprint(st.TrainData())
	res.EstimateFingerprint = persist.DataFingerprint(nil, res.Estimates)
	return res, nil
}

// selectBatch applies the strategy and validates its output contract.
func (l *Loop) selectBatch(st *State, n int) ([]int, error) {
	sel, err := l.cfg.Strategy.Select(st, n)
	if err != nil {
		return nil, fmt.Errorf("plan: %s selection: %w", l.cfg.Strategy.Name(), err)
	}
	if len(sel) > n {
		return nil, fmt.Errorf("plan: %s selected %d flip-flops, budget %d", l.cfg.Strategy.Name(), len(sel), n)
	}
	for i, ff := range sel {
		if ff < 0 || ff >= len(st.Measured) || st.Measured[ff] {
			return nil, fmt.Errorf("plan: %s selected invalid or measured flip-flop %d", l.cfg.Strategy.Name(), ff)
		}
		if i > 0 && sel[i-1] >= ff {
			return nil, fmt.Errorf("plan: %s selection not strictly ascending", l.cfg.Strategy.Name())
		}
	}
	return sel, nil
}

func (l *Loop) applyMeasurement(st *State, ff, failures, injections int) {
	st.Predicted = nil
	st.Measured[ff] = true
	st.Failures[ff] = failures
	st.Injections[ff] = injections
	if injections > 0 {
		st.FDR[ff] = float64(failures) / float64(injections)
	}
}

// estimate retrains the model on the measured flip-flops and writes it into
// res with the per-FF estimate vector, the circuit FFR (the vector's mean)
// and the measured-mean CI, and its raw predictions into st.Predicted.
func (l *Loop) estimate(st *State, res *Result) error {
	trX, trY := st.TrainData()
	model := l.cfg.Model()
	if err := model.Fit(trX, trY); err != nil {
		return err
	}
	st.Predicted, st.PredictedBy = make([]float64, len(st.X)), l.cfg.ModelName
	res.Model = model
	res.Estimates = make([]float64, len(st.X))
	var sum float64
	for ff, x := range st.X {
		v := st.FDR[ff]
		if !st.Measured[ff] {
			v = model.Predict(x)
			st.Predicted[ff] = v
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
		}
		res.Estimates[ff] = v
		sum += v
	}
	res.FFR = sum / float64(len(res.Estimates))
	_, res.CILo, res.CIHi = metrics.MeanCI(trY, 1.96)
	return nil
}

func totalInjections(st *State) int {
	n := 0
	for _, ff := range st.Pool {
		n += st.Injections[ff]
	}
	return n
}

// roundCheckpointPath names the fault.Runner checkpoint of one in-flight
// round; "" when loop checkpointing is disabled.
func (l *Loop) roundCheckpointPath(round int) string {
	if l.cfg.CheckpointPath == "" {
		return ""
	}
	return fmt.Sprintf("%s.round%d", l.cfg.CheckpointPath, round)
}
