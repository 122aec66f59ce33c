package fault

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Early-exit reasons of a 64-lane window, the label values of
// ffr_campaign_early_exits_total.
const (
	// exitAllFailed: every undecided lane was confirmed failed by the
	// streaming classifier.
	exitAllFailed = "all_failed"
	// exitAllSettled: every undecided lane re-converged to golden state.
	exitAllSettled = "all_settled"
	// exitMixed: the batch stopped on a mix of failed and settled lanes.
	exitMixed = "mixed"
	// exitWindowEnd: the batch ran to the end of the stimulus window (no
	// early exit).
	exitWindowEnd = "window_end"
	// exitRepacked: the group's wide batch was cut with lanes still
	// undecided, to be re-injected in a later round.
	exitRepacked = "repacked"
)

// campaignMetrics is the campaign engine's observability surface
// (ffr_campaign_*). A nil *campaignMetrics is a valid no-op, so the hot
// simulation path pays one pointer check when telemetry is off.
type campaignMetrics struct {
	chunksCompleted *obs.Counter
	chunkSeconds    *obs.Histogram
	batches         *obs.Counter
	simCycles       *obs.Counter
	replayCycles    *obs.Counter
	ffHits          *obs.Counter
	ffCycles        *obs.Counter
	earlyExits      *obs.CounterVec
	ckSeconds       *obs.Histogram
	jobsDone        *obs.Gauge
	jobsTotal       *obs.Gauge
	lanesPerBatch   *obs.Gauge
	activeLanes     *obs.Counter
	windowLanes     *obs.Counter
	repackedLanes   *obs.Counter
	kernelOps       *obs.Gauge
	kernelSlots     *obs.Gauge
	kernelHolds     *obs.Gauge
	kernelCoalesced *obs.Gauge
	kernelRemoved   *obs.GaugeVec
}

func newCampaignMetrics(reg *obs.Registry) *campaignMetrics {
	return &campaignMetrics{
		chunksCompleted: reg.Counter("ffr_campaign_chunks_completed_total",
			"shard chunks simulated (excludes chunks restored from a checkpoint)"),
		chunkSeconds: reg.Histogram("ffr_campaign_chunk_seconds",
			"per-chunk simulation wall time in seconds", obs.DefBuckets),
		batches: reg.Counter("ffr_campaign_batches_total",
			"64-lane batches of the plan simulated (a repacked lane's second window is not another batch)"),
		simCycles: reg.Counter("ffr_campaign_simulated_cycles_total",
			"engine cycles actually simulated"),
		replayCycles: reg.Counter("ffr_campaign_replay_cycles_total",
			"engine cycles replaying every 64-lane batch from cycle 0 would have simulated"),
		ffHits: reg.Counter("ffr_campaign_fastforward_hits_total",
			"batches whose golden-state snapshot fast-forward skipped a non-empty prefix"),
		ffCycles: reg.Counter("ffr_campaign_fastforward_cycles_total",
			"engine cycles skipped by golden-state snapshot fast-forward"),
		earlyExits: reg.CounterVec("ffr_campaign_early_exits_total",
			"64-lane simulation windows by how they ended (repacked: cut with stragglers left for a later round)", "reason"),
		ckSeconds: reg.Histogram("ffr_campaign_checkpoint_seconds",
			"checkpoint save latency in seconds", obs.DefBuckets),
		jobsDone: reg.Gauge("ffr_campaign_jobs_done",
			"injection jobs completed (including jobs restored from a checkpoint)"),
		jobsTotal: reg.Gauge("ffr_campaign_jobs_total",
			"injection jobs in the campaign plan"),
		lanesPerBatch: reg.Gauge("ffr_campaign_lanes_per_batch",
			"independent fault-simulation lanes per engine batch (64 per kernel batch word)"),
		activeLanes: reg.Counter("ffr_campaign_active_lane_cycles_total",
			"lane-cycles spent on lanes still undecided at the start of their snapshot interval (lane occupancy = active/window)"),
		windowLanes: reg.Counter("ffr_campaign_window_lane_cycles_total",
			"lane-cycles simulated, whole engine width (lanes per batch x simulated cycles)"),
		repackedLanes: reg.Counter("ffr_campaign_repacked_lanes_total",
			"lanes a cut batch left undecided, re-injected from their injection cycle in a later round"),
		kernelOps: reg.Gauge("ffr_campaign_kernel_ops",
			"bytecode instructions of the campaign kernel's combinational pass"),
		kernelSlots: reg.Gauge("ffr_campaign_kernel_slots",
			"register-file rows of the campaign kernel"),
		kernelHolds: reg.Gauge("ffr_campaign_kernel_hold_captures",
			"load-enable flip-flops the campaign kernel captures at the clock edge instead of through a mux op"),
		kernelCoalesced: reg.Gauge("ffr_campaign_kernel_coalesced_captures",
			"plain flip-flops whose D instruction writes the Q row, so the campaign kernel's clock edge copies nothing for them"),
		kernelRemoved: reg.GaugeVec("ffr_campaign_kernel_removed_ops",
			"program ops the kernel compiler removed, by pass: constant folding and copy propagation (fold), producers fused into a superop (fuse), dead fanout (prune)", "pass"),
	}
}

// observeKernel records the shape of the kernel a plan compiled.
func (m *campaignMetrics) observeKernel(st sim.KernelStats) {
	if m == nil {
		return
	}
	m.kernelOps.Set(float64(st.KernelOps))
	m.kernelSlots.Set(float64(st.Slots))
	m.kernelHolds.Set(float64(st.Holds))
	m.kernelCoalesced.Set(float64(st.Coalesced))
	m.kernelRemoved.With("fold").Set(float64(st.Folded))
	m.kernelRemoved.With("fuse").Set(float64(st.Fused))
	m.kernelRemoved.With("prune").Set(float64(st.Pruned))
}

// observeJobs is campaign-wide progress, reported by the campaign's Ledger;
// a fabric worker's leases have none to report.
func (m *campaignMetrics) observeJobs(jobsDone, jobsTotal int) {
	if m == nil {
		return
	}
	m.jobsDone.Set(float64(jobsDone))
	m.jobsTotal.Set(float64(jobsTotal))
}

// startPool and observeChunk are recorded by the chunk pool itself, so
// local campaigns and leased chunks export the same families.
func (m *campaignMetrics) startPool(lanes int) {
	if m == nil {
		return
	}
	m.lanesPerBatch.Set(float64(lanes))
}

func (m *campaignMetrics) observeChunk(cr chunkResult) {
	if m == nil {
		return
	}
	m.chunksCompleted.Inc()
	m.batches.Add(float64(len(cr.masks)))
	m.chunkSeconds.Observe(cr.elapsed.Seconds())
	m.simCycles.Add(float64(cr.simCycles))
	m.replayCycles.Add(float64(cr.replayCycles))
}

// observeBatch records one 64-lane window: the fast-forwarded
// prefix [0, start) and how the window ended at stop of total cycles.
func (m *campaignMetrics) observeBatch(start, stop, cycles int, used, failed, settled uint64) {
	if m == nil {
		return
	}
	if start > 0 {
		m.ffHits.Inc()
		m.ffCycles.Add(float64(start))
	}
	reason := exitWindowEnd
	if stop < cycles {
		switch {
		case used&^(failed|settled) != 0:
			reason = exitRepacked
		case used&^failed == 0:
			reason = exitAllFailed
		case used&^settled == 0:
			reason = exitAllSettled
		default:
			reason = exitMixed
		}
	}
	m.earlyExits.With(reason).Inc()
}

// observeWideBatch records one wide batch's lane occupancy and the lanes it
// left for a later round.
func (m *campaignMetrics) observeWideBatch(active, window, repacked int) {
	if m == nil {
		return
	}
	m.activeLanes.Add(float64(active))
	m.windowLanes.Add(float64(window))
	m.repackedLanes.Add(float64(repacked))
}

func (m *campaignMetrics) observeCheckpoint(elapsed time.Duration) {
	if m == nil {
		return
	}
	m.ckSeconds.Observe(elapsed.Seconds())
}
