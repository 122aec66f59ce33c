package fault

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/durable"
	"repro/internal/sim"
)

// Plan is a prepared campaign: one validated injection plan on one Runner,
// with its chunk geometry, packing and golden reference. Everything else a
// chunk simulation or a checkpoint needs is derived from those at most once,
// on first use, and shared by every later lease, flush and fold — so a
// coordinator, which never simulates, builds no effect table, and a local
// run, which neither checkpoints nor joins a fabric, hashes nothing. A Plan
// is safe for concurrent use.
type Plan struct {
	r    *Runner
	jobs []Job
	sh   sharding
	// The runner's golden run: its trace and restore points.
	golden *sim.Trace
	snaps  *sim.Snapshots

	// The packing: position i carries jobs[order[i]] (see cycleOrder).
	order []int

	// What simulating a chunk reads, shared read-only by all workers of all
	// leases; set by ready.
	execOnce sync.Once
	execErr  error
	kern     *sim.Kernel
	// setFX is the plan's SET effect table; nil for other models. It derives
	// from the golden run alone, so every fabric worker computes identical
	// effects for its leased chunks.
	setFX map[int64]setEffect

	// What a checkpoint of this plan pins; see Hashes.
	hashOnce             sync.Once
	planHash, goldenHash durable.Hash
}

// Prepare validates the plan against the program, stimulus and fault model
// and fixes its chunk geometry, packing and golden trace.
func (r *Runner) Prepare(jobs []Job) (*Plan, error) {
	if err := r.validateJobs(jobs); err != nil {
		return nil, err
	}
	sh, err := newSharding(len(jobs), r.cfg.ChunkJobs)
	if err != nil {
		return nil, err
	}
	return &Plan{r: r, jobs: jobs, sh: sh, order: cycleOrder(jobs),
		golden: r.cfg.Golden, snaps: r.cfg.Snapshots}, nil
}

// cycleOrder is the packing every campaign uses: the plan's jobs by ascending
// injection cycle, equal cycles in plan order. The packing never changes
// results — the fold maps every lane back to its job — but golden
// fast-forward skips everything before a batch's earliest injection cycle,
// so a batch spanning a narrow cycle window skips nearly the whole shared
// prefix. It is a stable counting sort: plans are large (FFs × injections)
// and cycles dense, so this is O(jobs + cycles).
func cycleOrder(jobs []Job) []int {
	maxCycle := 0
	for _, j := range jobs {
		maxCycle = max(maxCycle, j.Cycle)
	}
	counts := make([]int, maxCycle+2)
	for _, j := range jobs {
		counts[j.Cycle+1]++
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	order := make([]int, len(jobs))
	for i, j := range jobs {
		order[counts[j.Cycle]] = i
		counts[j.Cycle]++
	}
	return order
}

// validateJobs bounds-checks a plan against the program, stimulus and fault
// model (which defines the target index space — flip-flops, or combinational
// cells for SET).
func (r *Runner) validateJobs(jobs []Job) error {
	numTargets := r.model.NumTargets(r.p)
	noun := "FF"
	if !r.model.TargetsFFs() {
		noun = "comb target"
	}
	for _, j := range jobs {
		if j.FF < 0 || j.FF >= numTargets {
			return fmt.Errorf("fault: job targets %s %d of %d", noun, j.FF, numTargets)
		}
		if j.Cycle < 0 || j.Cycle >= r.stim.Cycles() {
			return fmt.Errorf("fault: job at cycle %d of %d", j.Cycle, r.stim.Cycles())
		}
	}
	return nil
}

// TotalJobs is the plan length, ChunkJobs the chunk size in jobs (a whole
// number of 64-lane batches) and NumChunks the chunk count: the geometry
// every node of a distributed campaign must agree on.
func (pl *Plan) TotalJobs() int { return pl.sh.totalJobs }
func (pl *Plan) ChunkJobs() int { return pl.sh.chunkJobs }
func (pl *Plan) NumChunks() int { return pl.sh.numChunks }

// Hashes fingerprints the jobs (PlanFingerprint) and the golden trace: what
// a checkpoint pins and what fabric nodes compare on join. Both are digested
// on the first call and never again — the plan digest alone costs 4 ms at the
// paper's scale.
func (pl *Plan) Hashes() (plan, golden durable.Hash) {
	pl.hashOnce.Do(func() {
		pl.planHash = durable.Hash(PlanFingerprint(pl.jobs))
		pl.goldenHash = durable.Hash(pl.golden.Fingerprint())
	})
	return pl.planHash, pl.goldenHash
}

// ready gathers what simulating a chunk reads, once per plan.
func (pl *Plan) ready() error {
	pl.execOnce.Do(func() {
		r := pl.r
		if pl.kern, pl.execErr = r.kernel(); pl.execErr != nil {
			return
		}
		r.metrics.observeKernel(pl.kern.Stats())
		pl.setFX = r.setEffects(pl.jobs)
		if r.model.Kind == KindMBU {
			r.ffClusters()
		}
	})
	return pl.execErr
}

// RunChunks simulates exactly the given chunks of the plan and returns their
// per-batch failure masks, keyed by chunk index — the unit of work a fabric
// worker executes under one lease. It runs them on the same chunk pool as
// Run, with the same ffr_campaign_* chunk metrics, and its masks are
// bit-identical to what a full single-node Run records for the same chunks;
// whoever keeps the campaign's Ledger does the rest.
//
// On context cancellation the chunks already finished are returned
// alongside an error wrapping ErrInterrupted, so callers can still report
// completed work before abandoning the lease.
func (pl *Plan) RunChunks(ctx context.Context, chunkIdx []int) (map[int][]uint64, error) {
	seen := make(map[int]bool, len(chunkIdx))
	for _, ci := range chunkIdx {
		if ci < 0 || ci >= pl.sh.numChunks {
			return nil, fmt.Errorf("fault: chunk %d of %d", ci, pl.sh.numChunks)
		}
		if seen[ci] {
			return nil, fmt.Errorf("fault: chunk %d requested twice", ci)
		}
		seen[ci] = true
	}
	if err := pl.ready(); err != nil {
		return nil, err
	}
	done := make(map[int][]uint64, len(chunkIdx))
	pl.r.runPool(ctx, pl, chunkIdx, func(cr chunkResult) { done[cr.index] = cr.masks })
	if len(done) < len(chunkIdx) {
		return done, fmt.Errorf("%w after %d of %d chunks: %v",
			ErrInterrupted, len(done), len(chunkIdx), context.Cause(ctx))
	}
	return done, nil
}

// sharding is the deterministic chunk geometry of a plan: totalJobs jobs in
// numChunks chunks of chunkJobs jobs each (the last possibly short), every
// chunk a whole number of 64-lane batches.
type sharding struct {
	totalJobs int
	chunkJobs int
	numChunks int
}

func newSharding(totalJobs, chunkJobs int) (sharding, error) {
	if totalJobs < 0 {
		return sharding{}, fmt.Errorf("fault: negative job count %d", totalJobs)
	}
	if chunkJobs <= 0 {
		chunkJobs = DefaultChunkJobs
	}
	// Round up to whole batches so chunk boundaries never split a batch.
	chunkJobs = (chunkJobs + sim.Lanes - 1) / sim.Lanes * sim.Lanes
	return sharding{
		totalJobs: totalJobs,
		chunkJobs: chunkJobs,
		numChunks: (totalJobs + chunkJobs - 1) / chunkJobs,
	}, nil
}

// chunkRange returns the half-open job interval of chunk ci.
func (s sharding) chunkRange(ci int) (lo, hi int) {
	lo = ci * s.chunkJobs
	hi = lo + s.chunkJobs
	if hi > s.totalJobs {
		hi = s.totalJobs
	}
	return lo, hi
}

// chunkBatches returns the number of 64-lane batches in chunk ci.
func (s sharding) chunkBatches(ci int) int {
	lo, hi := s.chunkRange(ci)
	return (hi - lo + sim.Lanes - 1) / sim.Lanes
}

// numBatches returns the total number of 64-lane batches across all chunks.
func (s sharding) numBatches() int {
	return (s.totalJobs + sim.Lanes - 1) / sim.Lanes
}
