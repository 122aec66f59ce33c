package fault

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/durable"
)

// CheckpointVersion is the current on-disk format version of a campaign
// checkpoint (docs/ARCHITECTURE.md "On-disk state"). Loaders reject any
// other version with ErrCheckpointVersion.
const CheckpointVersion = 1

// Checkpoint errors, matchable with errors.Is.
var (
	// ErrCheckpointCorrupt marks files that are not parseable checkpoints.
	ErrCheckpointCorrupt = errors.New("fault: corrupt checkpoint")
	// ErrCheckpointVersion marks a parseable checkpoint of an unsupported
	// format version, or of a dialect an earlier build wrote.
	ErrCheckpointVersion = errors.New("fault: unsupported checkpoint version")
	// ErrCheckpointMismatch marks a well-formed checkpoint that belongs to
	// a different campaign (plan, golden trace or shard geometry differ).
	ErrCheckpointMismatch = errors.New("fault: checkpoint does not match campaign")
)

// Checkpoint is the on-disk state of a partially (or fully) completed
// campaign: which shard chunks are done and what their failure masks were,
// plus fingerprints pinning the exact campaign they belong to.
type Checkpoint struct {
	// PlanHash fingerprints the injection plan (see PlanFingerprint).
	PlanHash durable.Hash `json:"plan_hash"`
	// GoldenHash fingerprints the golden trace the masks were classified
	// against (see sim.Trace.Fingerprint).
	GoldenHash durable.Hash `json:"golden_hash"`
	// ClassifierHash fingerprints the failure criterion
	// (Classifier.ConfigFingerprint).
	ClassifierHash durable.Hash `json:"classifier_hash"`
	// Schedule names the batch packing the masks were recorded under: the
	// same mask bit maps to a different job under another. This build packs
	// one way: its ledgers write "clustered", and LoadCheckpoint refuses any
	// other value.
	Schedule string `json:"schedule,omitempty"`
	// Model is the canonical fault-model string (Model.String) the masks
	// were recorded under: the same job injects a different fault under
	// another.
	Model string `json:"fault_model,omitempty"`
	// TotalJobs is the plan length.
	TotalJobs int `json:"total_jobs"`
	// ChunkJobs is the shard chunk size in jobs (a multiple of sim.Lanes).
	ChunkJobs int `json:"chunk_jobs"`
	// NumChunks is the total shard count of the campaign.
	NumChunks int `json:"num_chunks"`
	// Chunks maps completed chunk index -> per-batch failure masks (payload).
	Chunks map[int][]uint64 `json:"-"`
}

// checkpointHeader is the header line after magic and version: the
// Checkpoint's own fields, which are the file's on-disk names, and the
// number of chunks the payload must hold.
type checkpointHeader struct {
	Checkpoint
	Completed int `json:"completed_chunks"`
}

var checkpointFormat = durable.Format{Magic: "repro/fault campaign checkpoint", Version: CheckpointVersion,
	Corrupt: ErrCheckpointCorrupt, Unsupported: ErrCheckpointVersion}

// packing is the schedule every checkpoint of this build records: jobs packed
// by ascending injection cycle (cycleOrder).
const packing = "clustered"

// Validate refuses, as ErrCheckpointVersion, the two dialects of earlier
// builds: masks packed in plan order (no "clustered" schedule) and files from
// before fault models (no fault_model).
func (h *checkpointHeader) Validate() error {
	if h.Schedule != packing {
		return fmt.Errorf("%w: schedule %q, not %q: masks packed in plan order by an earlier build",
			ErrCheckpointVersion, h.Schedule, packing)
	}
	if h.Model == "" {
		return fmt.Errorf("%w: no fault model recorded: written by a build before fault models", ErrCheckpointVersion)
	}
	return nil
}

// Fingerprint returns a canonical 64-bit digest of the checkpoint's
// content: campaign fingerprints, shard geometry, schedule, fault model and
// every completed chunk's masks, visited in ascending chunk order. Two
// checkpoints fingerprint equal iff they represent the same campaign state
// — regardless of file-level encoding details (gob serializes the chunk
// map in nondeterministic order, so comparing file bytes would not work).
// This is how the distributed fabric proves a merged multi-worker campaign
// is bit-identical to a single-node run.
func (c *Checkpoint) Fingerprint() uint64 {
	d := durable.NewDigest()
	d.U64(uint64(c.PlanHash))
	d.U64(uint64(c.GoldenHash))
	d.U64(uint64(c.ClassifierHash))
	d.Str(c.Schedule)
	d.Str(c.Model)
	d.Int(c.TotalJobs)
	d.Int(c.ChunkJobs)
	d.Int(c.NumChunks)
	d.Int(len(c.Chunks))
	for _, ci := range slices.Sorted(maps.Keys(c.Chunks)) {
		d.Int(ci)
		d.Int(len(c.Chunks[ci]))
		for _, m := range c.Chunks[ci] {
			d.U64(m)
		}
	}
	return d.Sum()
}

// PlanFingerprint returns a stable 64-bit digest of an injection plan. Two
// plans fingerprint equal iff they contain the same jobs in the same order,
// which is how checkpoints detect being resumed against a different seed,
// budget or flip-flop population.
func PlanFingerprint(jobs []Job) uint64 {
	d := durable.NewDigest()
	d.Int(len(jobs))
	for _, j := range jobs {
		d.Int(j.FF)
		d.Int(j.Cycle)
	}
	return d.Sum()
}

// SaveCheckpoint atomically replaces the file at path with c (durable.Save),
// so readers never observe a torn file.
func SaveCheckpoint(path string, c *Checkpoint) error {
	return durable.Save(path, checkpointFormat, checkpointHeader{*c, len(c.Chunks)}, c.Chunks)
}

// LoadCheckpoint reads and structurally validates a checkpoint file. It
// returns ErrCheckpointCorrupt for files durable.Load refuses or whose
// payload disagrees with the header's chunk count or shard geometry,
// ErrCheckpointVersion for foreign format versions and for the dialects of
// earlier builds (see checkpointHeader.Validate), and fs.ErrNotExist when no
// checkpoint exists. Campaign-level matching (does this checkpoint belong to
// the plan being run?) is the caller's job.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	var hdr checkpointHeader
	if err := durable.Load(path, checkpointFormat, &hdr, &hdr.Chunks); err != nil {
		return nil, err
	}
	c, f := &hdr.Checkpoint, checkpointFormat
	if len(c.Chunks) != hdr.Completed {
		return nil, f.Corruptf(path, "header says %d chunks, payload has %d", hdr.Completed, len(c.Chunks))
	}
	sh, err := newSharding(c.TotalJobs, c.ChunkJobs)
	if err != nil || sh.chunkJobs != c.ChunkJobs || sh.numChunks != c.NumChunks {
		return nil, f.Corruptf(path, "inconsistent shard geometry (%d jobs, %d/chunk, %d chunks)",
			c.TotalJobs, c.ChunkJobs, c.NumChunks)
	}
	for ci, masks := range c.Chunks {
		if ci < 0 || ci >= c.NumChunks {
			return nil, f.Corruptf(path, "chunk %d of %d", ci, c.NumChunks)
		}
		if len(masks) != sh.chunkBatches(ci) {
			return nil, f.Corruptf(path, "chunk %d has %d batches, want %d", ci, len(masks), sh.chunkBatches(ci))
		}
	}
	return c, nil
}
