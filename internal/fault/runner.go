package fault

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Runner is the sharded, resumable campaign runtime, in three parts that
// each exist once. Prepare (plan.go) validates an injection plan, packs it
// and splits it deterministically into fixed-size chunks of whole 64-lane
// batches: a Plan, from which kernel, SET effect table and fingerprints are
// each derived at most once. runPool (this file) fans chunks of a Plan
// out across a bounded worker pool. A Ledger (ledger.go) records finished
// chunks: it decides which checkpoint belongs to the campaign, checks every
// chunk, flushes the checkpoint on its cadence and folds the masks into the
// Result. Plan.Run is open ledger → runPool(pending, ledger.Add) →
// ledger.Result, and RunContext is Prepare + Plan.Run; a fabric worker runs
// leases on its Plan (Plan.RunChunks) while its coordinator keeps the Ledger.
//
// Faulty batches are simulated one way: 256 lanes at a time on the compiled
// kernel (wide.go). Four mechanisms compose there, all of them
// result-preserving (the equivalence suite pins bit-identical failure masks
// against a full replay of every 64-lane batch from cycle 0 on sim.Engine,
// kept in the tests as the reference):
//
//   - Golden fast-forward: the golden run captures periodic engine-state
//     snapshots (sim.Snapshots); every faulty batch restores the snapshot at
//     or before its earliest event (a flip or a SET output glitch) instead
//     of re-simulating the prefix, which is provably identical to golden
//     because lanes only diverge at their first event.
//   - Streaming early exit: a batch stops as soon as every used lane is
//     either confirmed failed by the classifier's stream
//     (Classifier.StartStream) or has re-converged to the golden engine
//     state — in both cases the remaining cycles cannot change the verdict,
//     so the stream's Verdict, which takes the trace suffix as the golden
//     run's, is the batch's verdict.
//   - Cycle-clustered packing: jobs are packed into batches in ascending
//     injection-cycle order (see cycleOrder), so each batch spans a narrow
//     cycle window and the prefix skip actually bites.
//   - Straggler repacking: a 256-lane batch stops once at most a quarter of
//     its lanes are undecided, and a chunk's stragglers are re-injected
//     together in a later, denser batch instead of each keeping a whole
//     batch running to the end of the stimulus. A decided verdict is final
//     and a lane's simulation is a pure function of its job, so the re-run
//     changes no verdict.
//
// Determinism is structural: a chunk's failure masks depend only on the
// plan and the golden trace, never on scheduling of workers,
// worker count, chunk size, snapshot cadence or how often the run was
// interrupted. Resuming from a checkpoint therefore produces bit-identical
// per-FF failure counts to an uninterrupted run — a property the tests pin.
//
// The Runner simulates no golden run of its own: the caller hands it the
// golden trace and the snapshots captured during that same run (as
// corpus.Materialized.Runner does), and every shard of every Run call
// classifies against that one trace.

// Default shard geometry and checkpoint cadence.
const (
	// DefaultChunkJobs is the default shard chunk size: 16 batches.
	DefaultChunkJobs = 16 * sim.Lanes
	// checkpointEvery is the number of merged chunks between checkpoint
	// flushes; a Ledger also flushes with the last chunk and on interrupt.
	checkpointEvery = 4
)

// ErrInterrupted reports a campaign stopped by context cancellation. The
// checkpoint (when configured) has been flushed with all completed chunks.
var ErrInterrupted = errors.New("fault: campaign interrupted")

// Progress is a point-in-time view of a running campaign, delivered to
// RunnerConfig.OnProgress after every completed chunk.
type Progress struct {
	// JobsDone and JobsTotal count injection runs, including runs
	// restored from a checkpoint.
	JobsDone, JobsTotal int
	// ChunksDone and ChunksTotal count shard chunks.
	ChunksDone, ChunksTotal int
	// ChunksResumed is how many of ChunksDone were restored from the
	// checkpoint rather than simulated in this run.
	ChunksResumed int
	// Elapsed is the wall time since Run started.
	Elapsed time.Duration
	// ETA estimates the remaining wall time from this run's own
	// throughput; it is zero until at least one chunk has been simulated.
	ETA time.Duration
}

// RunnerConfig parameterizes a Runner.
type RunnerConfig struct {
	// Model selects the fault model jobs are executed under; the zero
	// value is the SEU reference model. The model defines what a job's
	// target index means (flip-flop, or combinational cell for SET) and
	// what engine events a job expands into — see Model. Checkpoints
	// record the model and refuse to resume under a different one.
	Model Model
	// ChunkJobs is the shard chunk size in jobs; it is rounded up to a
	// whole number of 64-lane batches. 0 means DefaultChunkJobs.
	ChunkJobs int
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Golden is the golden trace of the stimulus over the monitored
	// outputs, in the runner's monitor order. Required: a mismatched golden
	// would silently misclassify every lane, so NewRunner checks its
	// geometry.
	Golden *sim.Trace
	// Snapshots are the golden engine-state restore points captured during
	// that same golden run (sim.RunConfig.Snapshots). Required. Their
	// cadence never changes results, only the fast-forward and early-exit
	// granularity.
	Snapshots *sim.Snapshots
	// CheckpointPath enables checkpointing to this file; "" disables it.
	CheckpointPath string
	// Resume loads CheckpointPath (if it exists) before running and skips
	// its completed chunks. Requires CheckpointPath.
	Resume bool
	// OnProgress, when non-nil, is invoked from the merge stage after
	// every completed chunk.
	OnProgress func(Progress)
	// Metrics optionally receives the ffr_campaign_* metric families
	// (per-chunk wall time, simulated-vs-replay cycles, fast-forward hit
	// rate, early-exit reasons, checkpoint latency, job progress gauges);
	// nil disables campaign metrics.
	Metrics *obs.Registry
	// Logger optionally receives structured campaign records (start,
	// per-chunk starts and completions, checkpoint flushes); nil disables
	// logging.
	Logger *slog.Logger
}

// Runner executes injection plans; see the package comment above.
type Runner struct {
	p        *sim.Program
	stim     *sim.Stimulus
	monitors []int
	cls      Classifier
	cfg      RunnerConfig
	// model is the resolved fault model (normalized; never zero-valued).
	model Model

	metrics *campaignMetrics
	log     *slog.Logger

	// clusters are the lazily computed MBU proximity clusters.
	clusterOnce sync.Once
	clusters    [][]int
}

// NewRunner validates the configuration and returns a Runner.
func NewRunner(p *sim.Program, stim *sim.Stimulus, monitors []int, cls Classifier, cfg RunnerConfig) (*Runner, error) {
	if p == nil || stim == nil || cls == nil {
		return nil, fmt.Errorf("fault: runner needs a program, stimulus and classifier")
	}
	if len(monitors) == 0 {
		return nil, fmt.Errorf("fault: runner needs at least one monitored output")
	}
	if cfg.ChunkJobs < 0 {
		return nil, fmt.Errorf("fault: negative ChunkJobs %d", cfg.ChunkJobs)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("fault: negative Workers %d", cfg.Workers)
	}
	if cfg.Resume && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("fault: Resume requires a CheckpointPath")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if err := checkGolden(cfg.Golden, stim, monitors); err != nil {
		return nil, err
	}
	if cfg.Snapshots == nil {
		return nil, fmt.Errorf("fault: runner needs the golden run's snapshots")
	}
	if err := cfg.Snapshots.Matches(p, stim); err != nil {
		return nil, fmt.Errorf("fault: supplied snapshots: %w", err)
	}
	r := &Runner{
		p: p, stim: stim, monitors: monitors, cls: cls, cfg: cfg,
		model: cfg.Model.normalize(),
		log:   obs.Component(cfg.Logger, "campaign"),
	}
	if cfg.Metrics != nil {
		r.metrics = newCampaignMetrics(cfg.Metrics)
	}
	return r, nil
}

// checkGolden validates the supplied golden trace against the stimulus
// and monitor geometry.
func checkGolden(golden *sim.Trace, stim *sim.Stimulus, monitors []int) error {
	if golden == nil {
		return fmt.Errorf("fault: runner needs a golden trace")
	}
	if golden.Cycles() != stim.Cycles() {
		return fmt.Errorf("fault: golden trace covers %d cycles, stimulus has %d",
			golden.Cycles(), stim.Cycles())
	}
	if !slices.Equal(golden.Monitors, monitors) {
		return fmt.Errorf("fault: golden trace monitors ports %v, campaign monitors %v",
			golden.Monitors, monitors)
	}
	return nil
}

// workers resolves the configured pool bound.
func (r *Runner) workers() int {
	if r.cfg.Workers > 0 {
		return r.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// lanesPerBatch is the width of one engine batch.
const lanesPerBatch = sim.Lanes * sim.DefaultKernelWords

// chunkResult is one simulated chunk as the pool hands it back: per-batch
// failure masks, engine cycles simulated — and what a full replay of every
// 64-lane batch from cycle 0 would have simulated — and the wall time it took.
type chunkResult struct {
	index                   int
	masks                   []uint64
	simCycles, replayCycles int64
	elapsed                 time.Duration
}

// runPool is the one chunk executor, shared by Plan.Run and RunChunks. It
// simulates the chunks idx of the plan on a bounded pool of workers, each
// owning a reusable 256-lane kernel engine and its batch state, and hands
// every finished chunk to collect on the calling goroutine, in completion
// order.
// When ctx is canceled it stops dispatching, lets the chunks in flight
// finish and returns, so the caller collects fewer chunks than it asked for.
func (r *Runner) runPool(ctx context.Context, pl *Plan, idx []int, collect func(chunkResult)) {
	workers := r.workers()
	if workers > len(idx) {
		// No chunks means no workers: wg.Wait returns immediately and the
		// collect loop is a no-op.
		workers = len(idx)
	}
	r.metrics.startPool(lanesPerBatch)

	chunks := make(chan int)
	results := make(chan chunkResult)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := newWideWorkerState(r, pl)
			for ci := range chunks {
				r.log.Debug("chunk started", "chunk", ci)
				cr := chunkResult{index: ci, replayCycles: int64(pl.sh.chunkBatches(ci)) * int64(r.stim.Cycles())}
				start := time.Now()
				cr.masks, cr.simCycles = r.runChunkWide(ws, pl, ci)
				cr.elapsed = time.Since(start)
				r.metrics.observeChunk(cr)
				results <- cr
			}
		}()
	}
	go func() {
		defer close(chunks)
		for _, ci := range idx {
			// A select with both cases ready picks either: ask first, so a
			// context cancelled before the campaign dispatches nothing.
			if ctx.Err() != nil {
				return
			}
			select {
			case <-ctx.Done():
				return
			case chunks <- ci:
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	for cr := range results {
		collect(cr)
	}
}

// RunContext executes the plan: Prepare, then Plan.Run.
func (r *Runner) RunContext(ctx context.Context, jobs []Job) (*Result, error) {
	pl, err := r.Prepare(jobs)
	if err != nil {
		return nil, err
	}
	return pl.Run(ctx)
}

// Run executes the prepared plan: open its ledger, simulate the chunks the
// ledger lacks on the local pool, fold. On context cancellation it finishes
// the chunks already in flight, flushes the checkpoint (when configured) and
// returns an error wrapping ErrInterrupted; a later run with Resume set picks
// up from the flushed state.
func (pl *Plan) Run(ctx context.Context) (*Result, error) {
	// Internal cancellation lets the merge stage stop dispatching new
	// chunks as soon as a checkpoint save fails.
	ctx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	lg, err := pl.OpenLedger()
	if err != nil {
		return nil, err
	}
	if err := pl.ready(); err != nil {
		return nil, err
	}
	r, sh := pl.r, pl.sh
	r.log.Info("campaign start",
		"jobs", sh.totalJobs,
		"chunks", sh.numChunks,
		"resumed", lg.resumed,
		"workers", r.workers(),
		"lanes_per_batch", lanesPerBatch)

	// Merge stage: record chunk results, report progress.
	start := time.Now()
	var addErr error
	var simCycles, replayCycles int64
	r.runPool(ctx, pl, lg.Pending(), func(cr chunkResult) {
		if _, err := lg.Add(cr.index, cr.masks); err != nil {
			// Fail fast: a broken checkpoint sink would silently turn the
			// campaign non-resumable, so stop dispatching instead of
			// simulating chunks that can't be persisted.
			addErr = err
			cancelRun()
			return
		}
		simCycles += cr.simCycles
		replayCycles += cr.replayCycles
		r.log.Debug("chunk merged",
			"chunk", cr.index,
			"jobs_done", lg.JobsDone(),
			"sim_cycles", cr.simCycles,
			"elapsed", cr.elapsed)
		r.reportProgress(lg, start)
	})
	if addErr != nil {
		return nil, addErr
	}
	if lg.Len() < sh.numChunks {
		// Interrupted: flush everything completed so far and bail.
		if err := lg.Flush(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w after %d of %d chunks: %v",
			ErrInterrupted, lg.Len(), sh.numChunks, context.Cause(ctx))
	}
	res, err := lg.Result()
	if err != nil {
		return nil, err
	}
	res.SimulatedCycles = simCycles
	res.ReplayCycles = replayCycles
	r.log.Info("campaign complete",
		"jobs", sh.totalJobs,
		"chunks", sh.numChunks,
		"resumed", lg.resumed,
		"sim_cycles", simCycles,
		"replay_cycles", replayCycles,
		"elapsed", time.Since(start))
	return res, nil
}

// flipOp is one scheduled engine event of a batch: apply kind to ff in the
// lanes of mask within batch word `word` at the given cycle (expandJob leaves
// word 0; the batch packer sets it). fin marks the lanes' final event (see
// modelexec.go); under the SEU reference model every job is exactly one
// effFlip with fin set.
type flipOp struct {
	cycle int
	ff    int
	word  int
	mask  uint64
	kind  effKind
	fin   bool
}

// flipSorter orders a batch's events by cycle, ties in the order given (a
// lane's events stay in expandJob's order, lanes in packing order), with a
// stable counting sort: stuck-at interleaves Duration events per lane, which
// a comparison sort pays for per lane. Its buffers are recycled across
// batches.
type flipSorter struct {
	buf   []flipOp
	count []int
}

// sort returns the events of flips in order; flips becomes the sorter's
// next buffer and must not be used again.
func (s *flipSorter) sort(flips []flipOp) []flipOp {
	if len(flips) == 0 {
		return flips
	}
	lo, hi := flips[0].cycle, flips[0].cycle
	for i := range flips {
		lo, hi = min(lo, flips[i].cycle), max(hi, flips[i].cycle)
	}
	// count[k+1] counts the events of cycle lo+k, then count[k] becomes
	// the position of that cycle's next event.
	count := slices.Grow(s.count[:0], hi-lo+2)[:hi-lo+2]
	clear(count)
	s.count = count
	for i := range flips {
		count[flips[i].cycle-lo+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	out := slices.Grow(s.buf[:0], len(flips))[:len(flips)]
	for i := range flips {
		k := flips[i].cycle - lo
		out[count[k]] = flips[i]
		count[k]++
	}
	s.buf = flips[:0]
	return out
}

func (r *Runner) reportProgress(lg *Ledger, start time.Time) {
	if r.cfg.OnProgress == nil {
		return
	}
	sh, chunksDone := lg.pl.sh, lg.Len()
	p := Progress{
		JobsDone:      lg.jobsDone,
		JobsTotal:     sh.totalJobs,
		ChunksDone:    chunksDone,
		ChunksTotal:   sh.numChunks,
		ChunksResumed: lg.resumed,
		Elapsed:       time.Since(start),
	}
	if computed := chunksDone - lg.resumed; computed > 0 && chunksDone < sh.numChunks {
		perChunk := p.Elapsed / time.Duration(computed)
		p.ETA = perChunk * time.Duration(sh.numChunks-chunksDone)
	}
	r.cfg.OnProgress(p)
}
