package fault

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"repro/internal/durable"
	"repro/internal/sim"
)

// ErrChunkConflict marks a chunk result whose masks contradict the ones a
// Ledger already holds for that chunk: the campaign is not deterministic.
var ErrChunkConflict = errors.New("fault: conflicting chunk result")

// Ledger is the one record of which chunks of a prepared plan are done and
// what their failure masks were. Whoever executes the campaign — a Runner's
// local pool, or a fabric coordinator collecting its workers' leases — opens
// one and hands it every finished chunk; the ledger decides which checkpoint
// belongs to the campaign, checks each chunk, flushes the checkpoint (every
// checkpointEvery chunks, and with the last one) and folds the masks into
// the Result. A Ledger is not safe for concurrent use.
type Ledger struct {
	pl   *Plan
	done map[int][]uint64
	// resumed counts the chunks restored from the checkpoint, jobsDone the
	// jobs of all recorded chunks, sinceFlush the chunks the file lacks.
	resumed, jobsDone, sinceFlush int
	// err is the flush failure that broke the ledger; see Err.
	err error
}

// OpenLedger starts the plan's ledger. With the Runner's Resume set it loads
// CheckpointPath (starting empty when the file does not exist) and restores
// its chunks, refusing with ErrCheckpointMismatch a file that belongs to
// another campaign.
func (pl *Plan) OpenLedger() (*Ledger, error) {
	r := pl.r
	l := &Ledger{pl: pl, done: make(map[int][]uint64, pl.sh.numChunks)}
	if r.cfg.Resume {
		ck, err := LoadCheckpoint(r.cfg.CheckpointPath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume; run from scratch.
		case err != nil:
			return nil, err
		default:
			if err := l.match(ck); err != nil {
				return nil, err
			}
			l.done, l.resumed = ck.Chunks, len(ck.Chunks)
			for ci := range l.done {
				lo, hi := pl.sh.chunkRange(ci)
				l.jobsDone += hi - lo
			}
		}
	}
	r.metrics.observeJobs(l.jobsDone, pl.sh.totalJobs)
	return l, nil
}

// match verifies that a loaded checkpoint belongs to exactly this campaign:
// same plan, same fault model, same golden trace, same failure criterion,
// same shard geometry. (That every chunk it holds lies inside that geometry
// with the right number of masks, packed as this build packs, is
// LoadCheckpoint's check.)
func (l *Ledger) match(ck *Checkpoint) error {
	pl, r := l.pl, l.pl.r
	planHash, goldenHash := pl.Hashes()
	if ck.PlanHash != planHash {
		return fmt.Errorf("%w: plan fingerprint differs (checkpoint %v)", ErrCheckpointMismatch, ck.PlanHash)
	}
	if ck.Model != r.model.String() {
		// Masks depend on what each job injected, so models must agree.
		return fmt.Errorf("%w: fault model differs (checkpoint %q, campaign %q)",
			ErrCheckpointMismatch, ck.Model, r.model)
	}
	if ck.GoldenHash != goldenHash {
		return fmt.Errorf("%w: golden trace fingerprint differs (checkpoint %v)", ErrCheckpointMismatch, ck.GoldenHash)
	}
	if ck.ClassifierHash != durable.Hash(r.cls.ConfigFingerprint()) {
		return fmt.Errorf("%w: failure-criterion fingerprint differs (checkpoint %v)", ErrCheckpointMismatch, ck.ClassifierHash)
	}
	if sh := pl.sh; ck.TotalJobs != sh.totalJobs || ck.ChunkJobs != sh.chunkJobs || ck.NumChunks != sh.numChunks {
		return fmt.Errorf("%w: shard geometry differs (checkpoint %d jobs in %d chunks of %d, campaign %d/%d/%d)",
			ErrCheckpointMismatch, ck.TotalJobs, ck.NumChunks, ck.ChunkJobs,
			sh.totalJobs, sh.numChunks, sh.chunkJobs)
	}
	return nil
}

// Len is the number of chunks recorded, JobsDone the jobs they cover.
func (l *Ledger) Len() int      { return len(l.done) }
func (l *Ledger) JobsDone() int { return l.jobsDone }

// Has reports whether chunk ci is recorded.
func (l *Ledger) Has(ci int) bool {
	_, ok := l.done[ci]
	return ok
}

// Pending returns the chunks not yet recorded, ascending.
func (l *Ledger) Pending() []int {
	pending := make([]int, 0, l.pl.sh.numChunks-len(l.done))
	for ci := 0; ci < l.pl.sh.numChunks; ci++ {
		if !l.Has(ci) {
			pending = append(pending, ci)
		}
	}
	return pending
}

// Add records the masks of chunk ci, flushing the checkpoint when the
// cadence is reached or the chunk completes the plan. A chunk outside the
// plan or with the wrong number of masks is refused and changes nothing. So
// does a chunk recorded before: duplicate is true when its masks are
// bit-identical to the recorded ones (work stealing and expired-lease races
// produce such copies), and the error wraps ErrChunkConflict when not. Any
// other error is a failed flush: the chunk is recorded, but no resumable
// file is promised any more, and Err and every later Add report it.
func (l *Ledger) Add(ci int, masks []uint64) (duplicate bool, err error) {
	sh := l.pl.sh
	if l.err != nil {
		return false, l.err
	}
	if ci < 0 || ci >= sh.numChunks {
		return false, fmt.Errorf("fault: chunk %d of %d", ci, sh.numChunks)
	}
	if want := sh.chunkBatches(ci); len(masks) != want {
		return false, fmt.Errorf("fault: chunk %d carries %d batch masks, want %d", ci, len(masks), want)
	}
	if prev, ok := l.done[ci]; ok {
		for i := range prev {
			if prev[i] != masks[i] {
				return false, fmt.Errorf("%w: chunk %d batch %d mask %x contradicts recorded %x — campaign is not deterministic",
					ErrChunkConflict, ci, i, masks[i], prev[i])
			}
		}
		return true, nil
	}
	l.done[ci] = masks
	lo, hi := sh.chunkRange(ci)
	l.jobsDone += hi - lo
	l.sinceFlush++
	l.pl.r.metrics.observeJobs(l.jobsDone, sh.totalJobs)
	if l.sinceFlush >= checkpointEvery || len(l.done) == sh.numChunks {
		return false, l.Flush()
	}
	return false, nil
}

// Err is the flush failure that broke the ledger, nil while it is sound.
func (l *Ledger) Err() error { return l.err }

// Flush writes the checkpoint now, cadence or not — what an interrupted
// executor does before giving up, so a resumable file exists even when the
// interrupt landed before the first periodic save. It is a no-op without a
// CheckpointPath.
func (l *Ledger) Flush() error {
	r := l.pl.r
	if r.cfg.CheckpointPath == "" || l.err != nil {
		return l.err
	}
	start := time.Now()
	l.err = SaveCheckpoint(r.cfg.CheckpointPath, l.checkpoint())
	elapsed := time.Since(start)
	r.metrics.observeCheckpoint(elapsed)
	if l.err != nil {
		r.log.Error("checkpoint save failed",
			"path", r.cfg.CheckpointPath, "error", l.err)
	} else {
		r.log.Debug("checkpoint saved",
			"path", r.cfg.CheckpointPath,
			"chunks", len(l.done),
			"elapsed", elapsed)
	}
	l.sinceFlush = 0
	return l.err
}

// checkpoint assembles the versioned checkpoint of the recorded chunks.
func (l *Ledger) checkpoint() *Checkpoint {
	pl := l.pl
	planHash, goldenHash := pl.Hashes()
	return &Checkpoint{
		PlanHash:       planHash,
		GoldenHash:     goldenHash,
		ClassifierHash: durable.Hash(pl.r.cls.ConfigFingerprint()),
		Schedule:       packing,
		Model:          pl.r.model.String(),
		TotalJobs:      pl.sh.totalJobs,
		ChunkJobs:      pl.sh.chunkJobs,
		NumChunks:      pl.sh.numChunks,
		Chunks:         l.done,
	}
}

// Fingerprint is Checkpoint.Fingerprint of the recorded chunks: the digest
// of the file Flush writes, file or no file. It is how a distributed
// campaign is held to the single-node run of the same plan.
func (l *Ledger) Fingerprint() uint64 { return l.checkpoint().Fingerprint() }

// Result folds the masks of the complete ledger into the final per-target
// Result (per flip-flop for FF-targeted models, per combinational cell for
// SET) and its per-job outcome bits, in the caller's plan order. The fold
// visits chunks in index order and maps every lane back to its job through
// the packing, so the outcome is independent of completion order, packing
// and of which chunks came from a checkpoint or from which worker.
func (l *Ledger) Result() (*Result, error) {
	pl, sh := l.pl, l.pl.sh
	if len(l.done) != sh.numChunks {
		return nil, fmt.Errorf("fault: folding %d of %d chunks", len(l.done), sh.numChunks)
	}
	numTargets := pl.r.model.NumTargets(pl.r.p)
	res := &Result{
		FDR:           make([]float64, numTargets),
		Failures:      make([]int, numTargets),
		Injections:    make([]int, numTargets),
		FailedJobs:    make([]uint64, (sh.totalJobs+63)/64),
		TotalRuns:     sh.totalJobs,
		Batches:       sh.numBatches(),
		Chunks:        sh.numChunks,
		ResumedChunks: l.resumed,
	}
	for ci := 0; ci < sh.numChunks; ci++ {
		lo, hi := sh.chunkRange(ci)
		for bi, mask := range l.done[ci] {
			blo := lo + bi*sim.Lanes
			bhi := blo + sim.Lanes
			if bhi > hi {
				bhi = hi
			}
			for lane, pos := 0, blo; pos < bhi; lane, pos = lane+1, pos+1 {
				j := pl.order[pos]
				ff := pl.jobs[j].FF
				res.Injections[ff]++
				if mask>>uint(lane)&1 == 1 {
					res.Failures[ff]++
					res.FailedJobs[j/64] |= 1 << (uint(j) % 64)
				}
			}
		}
	}
	for ff := range res.FDR {
		if res.Injections[ff] > 0 {
			res.FDR[ff] = float64(res.Failures[ff]) / float64(res.Injections[ff])
		}
	}
	return res, nil
}
