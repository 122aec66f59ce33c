package fault

import "repro/internal/sim"

// Job is one scheduled injection of a campaign: inject a fault at target FF
// at the given cycle. What "inject" means — and what index space FF draws
// from — is defined by the campaign's fault Model: under the FF-targeted
// models (SEU, MBU, stuck-at) FF indexes flip-flops and the fault is a flip,
// a cluster flip or a forced hold; under SET it indexes combinational cells
// and the fault is a one-evaluation output pulse. The name FF is kept for
// compatibility with serialized plans from SEU-only versions.
type Job struct {
	FF    int
	Cycle int
}

// Classifier is the applicative failure criterion of a campaign: a stream
// per faulty batch observes the batch cycle by cycle while it runs, confirms
// the failures that are already certain (for early exit) and gives the
// batch's verdict when it stops.
type Classifier interface {
	// StartStream begins classifying one 64-lane batch against the golden
	// trace. used masks the lanes carrying real jobs; from is the first
	// cycle Observe will see — every earlier cycle is bit-identical to
	// golden (the batch's fast-forwarded prefix), so a stateful stream
	// starts from the golden run's state at from. The runner stops a batch
	// as soon as every used lane is either confirmed failed by Observe or
	// has re-converged to the golden engine state, and takes the stream's
	// Verdict there: a re-converged lane's remaining rows are golden's.
	//
	// Soundness contract: Verdict includes every lane Observe confirmed,
	// whatever rows follow.
	StartStream(golden *sim.Trace, used uint64, from int) Stream
	// ConfigFingerprint is a stable digest of the criterion's configuration.
	// Checkpoints record it so a campaign cannot be resumed under a
	// different criterion than it was started with (failure masks from two
	// criteria must never be merged).
	ConfigFingerprint() uint64
}

// Stream observes consecutive simulated cycles of one faulty batch. Streams
// are single-batch, single-goroutine state machines; StartStream returns a
// fresh one per batch.
type Stream interface {
	// Observe consumes cycle c's packed monitor words (golden and faulty,
	// one word per monitor in recording order) and returns the cumulative
	// mask of lanes already certain to fail. Cycles arrive in order, but
	// Observe may not see every cycle from 0: the runner starts at the
	// batch's fast-forward point, where every lane is still bit-identical
	// to golden.
	Observe(cycle int, golden, faulty []uint64) uint64
	// Verdict returns the lanes that fail when every row after the last
	// observed one is golden's.
	Verdict() uint64
}

// Result is the outcome of a campaign. The per-target arrays are indexed by
// the campaign model's target space: flip-flop index for SEU, MBU and
// stuck-at (an MBU is counted against its anchor flip-flop), combinational
// target index for SET.
type Result struct {
	// FDR is the per-target Functional De-Rating factor:
	// failures / injections.
	FDR []float64
	// Failures and Injections are the per-target raw counts.
	Failures   []int
	Injections []int
	// FailedJobs holds one outcome bit per job: bit j%64 of word j/64 is
	// set when job j of the caller's plan failed.
	FailedJobs []uint64
	// TotalRuns is the number of injection runs simulated.
	TotalRuns int
	// Batches is the number of 64-lane simulation passes.
	Batches int
	// Chunks is the number of shard chunks the plan was split into.
	Chunks int
	// ResumedChunks is how many chunks were restored from a checkpoint
	// instead of simulated.
	ResumedChunks int
	// SimulatedCycles counts the engine cycles actually simulated in this
	// run (chunks restored from a checkpoint contribute nothing).
	SimulatedCycles int64
	// ReplayCycles is what replaying every 64-lane batch of the same chunks
	// from cycle 0 would have simulated: computed batches × stimulus
	// cycles. Its ratio to SimulatedCycles is the cycle saving of
	// fast-forward, early exit and wide batches.
	ReplayCycles int64
}
