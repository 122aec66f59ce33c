package api

import (
	"fmt"
	"strconv"
)

// CampaignSpec identifies a distributed fault-injection campaign completely
// and deterministically: every node that materializes the spec derives the
// same netlist, workload, golden trace, injection plan and shard geometry,
// which is what lets workers simulate chunks independently and the
// coordinator merge them into a checkpoint bit-identical to a single-node
// run.
type CampaignSpec struct {
	// Scenario is the corpus scenario identifier ("family/workload").
	Scenario string `json:"scenario"`
	// Scale is the corpus scale name ("small", "default").
	Scale string `json:"scale"`
	// Seed drives netlist generation and workload construction.
	Seed int64 `json:"seed"`
	// InjectionsPerFF is the per-flip-flop SEU budget; 0 adopts the
	// scenario's default geometry.
	InjectionsPerFF int `json:"injections_per_ff,omitempty"`
	// CampaignSeed drives injection-time sampling; 0 adopts the scenario's
	// default.
	CampaignSeed int64 `json:"campaign_seed,omitempty"`
	// ChunkJobs is the shard chunk size in jobs; 0 means the runner
	// default.
	ChunkJobs int `json:"chunk_jobs,omitempty"`
	// FaultModel is the canonical fault-model string ("seu", "mbu:3",
	// "stuck0:8@0.25-0.75", "set", ...); "" means SEU. The model is part
	// of the campaign identity: it shapes the injection plan, the target
	// space and the per-lane fault effects, and every node must agree on
	// it for the fingerprints to match.
	FaultModel string `json:"fault_model,omitempty"`
	// Harden lists flip-flop indices to TMR-rewrite before the campaign
	// runs (see internal/harden); empty runs the unhardened design. The
	// indices refer to the unhardened netlist's FF order and are part of
	// the campaign identity — workers materialize the same rewrite and
	// the fingerprints prove it.
	Harden []int `json:"harden,omitempty"`
}

// JoinRequest is the body of POST /v1/fabric/join: a worker announcing
// itself.
type JoinRequest struct {
	Worker string `json:"worker"`
}

// JoinResponse hands a joining worker the campaign spec plus the
// fingerprints its local materialization must reproduce before it may
// lease work.
type JoinResponse struct {
	Spec CampaignSpec `json:"spec"`
	// PlanHash and GoldenHash fingerprint the injection plan and golden
	// trace (hex); a worker whose local build disagrees must not
	// contribute masks.
	PlanHash   string `json:"plan_hash"`
	GoldenHash string `json:"golden_hash"`
	// TotalJobs, ChunkJobs and NumChunks are the shard geometry.
	TotalJobs int `json:"total_jobs"`
	ChunkJobs int `json:"chunk_jobs"`
	NumChunks int `json:"num_chunks"`
	// LeaseTTLMillis is how long a lease stays valid without a heartbeat.
	LeaseTTLMillis int64 `json:"lease_ttl_millis"`
}

// LeaseRequest is the body of POST /v1/fabric/lease: a worker asking for
// up to Max chunks of work.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
}

// LeaseResponse grants chunks, asks the worker to retry later, or reports
// the campaign done.
type LeaseResponse struct {
	// Chunks are the shard chunk indices now leased to the worker.
	Chunks []int `json:"chunks,omitempty"`
	// Stolen counts how many of Chunks were work-stolen from another
	// worker's outstanding lease (straggler shards); informational.
	Stolen int `json:"stolen,omitempty"`
	// Done reports that every chunk is complete; the worker can exit.
	Done bool `json:"done,omitempty"`
	// RetryMillis asks the worker to poll again after this delay when no
	// chunks are currently available.
	RetryMillis int64 `json:"retry_millis,omitempty"`
}

// HeartbeatRequest is the body of POST /v1/fabric/heartbeat: the chunks a
// worker is still computing.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Chunks []int  `json:"chunks,omitempty"`
}

// HeartbeatResponse extends the worker's leases and lists chunks the
// coordinator no longer considers leased to it (expired and re-leased, or
// already completed by another worker) — the worker may abandon those.
type HeartbeatResponse struct {
	Canceled []int `json:"canceled,omitempty"`
}

// CompleteRequest is the body of POST /v1/fabric/complete: one finished
// chunk's failure masks. Masks travel hex-encoded because JSON numbers
// cannot carry 64-bit masks exactly.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Chunk  int    `json:"chunk"`
	// PlanHash re-states the campaign fingerprint so a coordinator can
	// reject masks from a worker that drifted (hex).
	PlanHash string `json:"plan_hash"`
	// Masks are the per-batch failure masks of the chunk, hex-encoded.
	Masks []string `json:"masks"`
}

// CompleteResponse acknowledges a chunk result.
type CompleteResponse struct {
	Accepted bool `json:"accepted"`
	// Duplicate reports the chunk was already complete (work stealing or a
	// re-lease raced); the masks were verified identical and discarded.
	Duplicate bool `json:"duplicate,omitempty"`
}

// FabricWorkerStatus is one worker's row in the coordinator status.
type FabricWorkerStatus struct {
	Worker string `json:"worker"`
	// Leased lists the chunks currently leased to the worker.
	Leased []int `json:"leased,omitempty"`
	// Completed counts chunks this worker delivered first.
	Completed int `json:"completed"`
	// LastSeenMillisAgo is the time since the worker's last request.
	LastSeenMillisAgo int64 `json:"last_seen_millis_ago"`
}

// FabricStatus is the success body of GET /v1/fabric/status.
type FabricStatus struct {
	Scenario    string `json:"scenario"`
	TotalChunks int    `json:"total_chunks"`
	DoneChunks  int    `json:"done_chunks"`
	Pending     int    `json:"pending"`
	Leased      int    `json:"leased"`
	Done        bool   `json:"done"`
	// JobsDone and JobsTotal express progress in injection jobs rather than
	// chunks (the last chunk may be short).
	JobsDone  int `json:"jobs_done"`
	JobsTotal int `json:"jobs_total"`
	// ProgressPercent is completed jobs over total, in [0,100].
	ProgressPercent float64 `json:"progress_percent"`
	// ETAMillis extrapolates the remaining wall time from the campaign's
	// completion rate so far; 0 until the first chunk lands or once done.
	ETAMillis int64                `json:"eta_millis,omitempty"`
	Workers   []FabricWorkerStatus `json:"workers,omitempty"`
	// LeaseExpirations and ShardsStolen count fault-tolerance events.
	LeaseExpirations int64 `json:"lease_expirations"`
	ShardsStolen     int64 `json:"shards_stolen"`
	// CheckpointFingerprint is the canonical digest of the merged
	// checkpoint once the campaign is done (hex); it equals the
	// fingerprint of a single-node run of the same spec.
	CheckpointFingerprint string `json:"checkpoint_fingerprint,omitempty"`
}

// EncodeMasks hex-encodes per-batch failure masks for the wire. JSON
// numbers are IEEE doubles and lose bits above 2^53, so masks never travel
// as numbers.
func EncodeMasks(masks []uint64) []string {
	out := make([]string, len(masks))
	for i, m := range masks {
		out[i] = strconv.FormatUint(m, 16)
	}
	return out
}

// DecodeMasks reverses EncodeMasks.
func DecodeMasks(enc []string) ([]uint64, error) {
	out := make([]uint64, len(enc))
	for i, s := range enc {
		m, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("api: bad mask %q at index %d", s, i)
		}
		out[i] = m
	}
	return out, nil
}
