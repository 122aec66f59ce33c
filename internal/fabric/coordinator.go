package fabric

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Coordinator defaults.
const (
	// DefaultLeaseTTL is how long a granted chunk survives without a
	// heartbeat before it returns to the pending queue.
	DefaultLeaseTTL = 15 * time.Second
	// DefaultMaxLeaseChunks bounds chunks granted per lease request.
	DefaultMaxLeaseChunks = 2
	// DefaultRetryMillis is the backoff hint returned when no work is
	// available.
	DefaultRetryMillis = 250
)

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// Spec identifies the campaign; it is resolved (defaults filled) at
	// construction.
	Spec api.CampaignSpec
	// LeaseTTL is the heartbeat deadline per leased chunk (0 =
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxLeaseChunks caps chunks per lease grant (0 =
	// DefaultMaxLeaseChunks).
	MaxLeaseChunks int
	// CheckpointPath persists merged worker results in the standard
	// campaign-checkpoint format; "" disables persistence.
	CheckpointPath string
	// Resume loads CheckpointPath (if present) and skips its completed
	// chunks, exactly like a single-node resumed run.
	Resume bool
	// Metrics optionally receives the fabric metric families; nil creates
	// a private registry (still served at /metrics).
	Metrics *obs.Registry
	// Logger optionally receives structured protocol logs (lease grants,
	// chunk completions, rejections) with trace IDs; nil disables logging.
	Logger *slog.Logger
	// Tracer optionally journals one span per protocol request, joined to
	// the trace propagated by the requesting worker; nil disables
	// journaling (traces still propagate).
	Tracer *obs.Tracer
	// Clock overrides time.Now for lease-expiry tests.
	Clock func() time.Time
}

// workerInfo is the coordinator's view of one worker.
type workerInfo struct {
	lastSeen  time.Time
	completed int
	// sawDone records that the worker has observed the finished campaign
	// (a Done lease response); Drained waits for every worker to see it
	// so a coordinator can shut down without stranding final polls.
	sawDone bool
}

// Coordinator owns a distributed campaign: the pending queue, the lease
// table and the campaign's chunk ledger — the fault.Ledger a single-node run
// keeps too, which matches a resumed checkpoint, checks and records every
// completed chunk, flushes the checkpoint and folds the result. All HTTP
// handlers and accessors are safe for concurrent use.
type Coordinator struct {
	cfg  CoordinatorConfig
	camp *Campaign

	mu       sync.Mutex
	pending  []int
	leases   map[int]map[string]time.Time // chunk -> worker -> lease expiry
	ledger   *fault.Ledger
	workers  map[string]*workerInfo
	finished bool
	result   *fault.Result
	finalErr error
	doneCh   chan struct{}

	metrics *obs.Registry
	log     *slog.Logger
	tracer  *obs.Tracer
	// started and startDone anchor the ETA extrapolation: progress made
	// before construction (a resumed checkpoint) must not inflate the
	// completion rate.
	started   time.Time
	startDone int

	mLeases, mExpired, mStolen,
	mCompleted, mDuplicates, mHeartbeats *obs.Counter
	gPending, gLeased, gDone, gWorkers *obs.Gauge
}

// NewCoordinator materializes the campaign and prepares the lease state.
// It does not listen; mount Handler on a server of your choice.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.LeaseTTL < 0 || cfg.MaxLeaseChunks < 0 {
		return nil, fmt.Errorf("fabric: negative coordinator knob")
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxLeaseChunks == 0 {
		cfg.MaxLeaseChunks = DefaultMaxLeaseChunks
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	camp, err := BuildCampaign(cfg.Spec, fault.RunnerConfig{
		CheckpointPath: cfg.CheckpointPath,
		Resume:         cfg.Resume,
	})
	if err != nil {
		return nil, err
	}
	ledger, err := camp.Plan.OpenLedger()
	if err != nil {
		return nil, err
	}

	c := &Coordinator{
		cfg:     cfg,
		camp:    camp,
		leases:  make(map[int]map[string]time.Time),
		ledger:  ledger,
		pending: ledger.Pending(),
		workers: make(map[string]*workerInfo),
		doneCh:  make(chan struct{}),
		metrics: cfg.Metrics,
		log:     obs.Component(cfg.Logger, "coord"),
		tracer:  cfg.Tracer,
		started: cfg.Clock(),
	}
	if c.metrics == nil {
		c.metrics = obs.NewRegistry()
	}
	c.mLeases = c.metrics.Counter("ffr_fabric_leases_granted_total", "chunks granted to workers")
	c.mExpired = c.metrics.Counter("ffr_fabric_lease_expirations_total", "leases expired without completion")
	c.mStolen = c.metrics.Counter("ffr_fabric_shards_stolen_total", "straggler chunks re-leased to another worker")
	c.mCompleted = c.metrics.Counter("ffr_fabric_chunks_completed_total", "chunks merged at the coordinator")
	c.mDuplicates = c.metrics.Counter("ffr_fabric_duplicate_results_total", "chunk results discarded as duplicates")
	c.mHeartbeats = c.metrics.Counter("ffr_fabric_heartbeats_total", "worker heartbeats processed")
	c.gPending = c.metrics.Gauge("ffr_fabric_chunks_pending", "chunks waiting for a lease")
	c.gLeased = c.metrics.Gauge("ffr_fabric_chunks_leased", "chunks currently leased")
	c.gDone = c.metrics.Gauge("ffr_fabric_chunks_done", "chunks completed")
	c.gWorkers = c.metrics.Gauge("ffr_fabric_workers", "workers that have contacted the coordinator")

	c.startDone = ledger.Len()
	c.updateGauges()
	if len(c.pending) == 0 {
		// Fully resumed: finish immediately so Wait returns.
		c.mu.Lock()
		c.finish(ledger.Result())
		c.mu.Unlock()
	}
	return c, nil
}

// Campaign returns the materialized campaign.
func (c *Coordinator) Campaign() *Campaign { return c.camp }

// now is the (test-overridable) clock.
func (c *Coordinator) now() time.Time { return c.cfg.Clock() }

// reap returns expired leases to the pending queue. Callers hold c.mu.
func (c *Coordinator) reap(now time.Time) {
	for ci, holders := range c.leases {
		for worker, expiry := range holders {
			if now.After(expiry) {
				delete(holders, worker)
				c.mExpired.Inc()
			}
		}
		if len(holders) == 0 {
			delete(c.leases, ci)
			if !c.ledger.Has(ci) {
				// Expired without a surviving holder: back to the front of
				// the queue so recovery beats fresh work.
				c.pending = append([]int{ci}, c.pending...)
			}
		}
	}
}

// touch records worker liveness. Callers hold c.mu.
func (c *Coordinator) touch(worker string) *workerInfo {
	wi, ok := c.workers[worker]
	if !ok {
		wi = &workerInfo{}
		c.workers[worker] = wi
	}
	wi.lastSeen = c.now()
	return wi
}

// updateGauges refreshes the chunk-state gauges. Callers hold c.mu (or are
// in single-threaded construction).
func (c *Coordinator) updateGauges() {
	c.gPending.Set(float64(len(c.pending)))
	c.gLeased.Set(float64(len(c.leases)))
	c.gDone.Set(float64(c.ledger.Len()))
	c.gWorkers.Set(float64(len(c.workers)))
}

// Join admits a worker and hands it the resolved spec plus the
// fingerprints its local build must reproduce.
func (c *Coordinator) Join(req api.JoinRequest) (api.JoinResponse, error) {
	if req.Worker == "" {
		return api.JoinResponse{}, fmt.Errorf("fabric: join without a worker name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(req.Worker)
	c.updateGauges()
	return api.JoinResponse{
		Spec:           c.camp.Spec,
		PlanHash:       c.camp.PlanHashHex(),
		GoldenHash:     c.camp.GoldenHashHex(),
		TotalJobs:      c.camp.Plan.TotalJobs(),
		ChunkJobs:      c.camp.Plan.ChunkJobs(),
		NumChunks:      c.camp.Plan.NumChunks(),
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	}, nil
}

// Lease grants up to req.Max chunks (capped by MaxLeaseChunks) to a
// worker. When the pending queue is empty but chunks are still
// outstanding, it work-steals: the straggler chunk closest to lease
// expiry is additionally leased to the requester, and whichever copy
// completes first wins.
func (c *Coordinator) Lease(req api.LeaseRequest) (api.LeaseResponse, error) {
	if req.Worker == "" {
		return api.LeaseResponse{}, fmt.Errorf("fabric: lease without a worker name")
	}
	max := req.Max
	if max <= 0 || max > c.cfg.MaxLeaseChunks {
		max = c.cfg.MaxLeaseChunks
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(req.Worker)
	c.reap(now)
	if err := c.failure(); err != nil {
		return api.LeaseResponse{}, err
	}
	if c.finished {
		c.workers[req.Worker].sawDone = true
		c.updateGauges()
		return api.LeaseResponse{Done: true}, nil
	}

	expiry := now.Add(c.cfg.LeaseTTL)
	var resp api.LeaseResponse
	for len(resp.Chunks) < max && len(c.pending) > 0 {
		ci := c.pending[0]
		c.pending = c.pending[1:]
		c.lease(ci, req.Worker, expiry)
		resp.Chunks = append(resp.Chunks, ci)
	}
	if len(resp.Chunks) == 0 {
		// Nothing pending: steal the outstanding chunk closest to expiry
		// (the most likely straggler) unless the requester already holds
		// it. One steal per request bounds duplicated simulation.
		if ci, ok := c.stealCandidate(req.Worker); ok {
			c.lease(ci, req.Worker, expiry)
			resp.Chunks = append(resp.Chunks, ci)
			resp.Stolen = 1
			c.mStolen.Inc()
		}
	}
	if len(resp.Chunks) == 0 {
		resp.RetryMillis = DefaultRetryMillis
	}
	c.mLeases.Add(float64(len(resp.Chunks)))
	c.updateGauges()
	return resp, nil
}

// lease records a chunk grant. Callers hold c.mu.
func (c *Coordinator) lease(ci int, worker string, expiry time.Time) {
	holders, ok := c.leases[ci]
	if !ok {
		holders = make(map[string]time.Time, 1)
		c.leases[ci] = holders
	}
	holders[worker] = expiry
}

// stealCandidate picks the outstanding chunk closest to lease expiry that
// the requester does not already hold. Callers hold c.mu.
func (c *Coordinator) stealCandidate(worker string) (int, bool) {
	best, bestExpiry, found := -1, time.Time{}, false
	for ci, holders := range c.leases {
		if _, mine := holders[worker]; mine {
			continue
		}
		if c.ledger.Has(ci) {
			continue
		}
		earliest := time.Time{}
		for _, exp := range holders {
			if earliest.IsZero() || exp.Before(earliest) {
				earliest = exp
			}
		}
		if !found || earliest.Before(bestExpiry) || (earliest.Equal(bestExpiry) && ci < best) {
			best, bestExpiry, found = ci, earliest, true
		}
	}
	return best, found
}

// Heartbeat extends the worker's leases and reports chunks it no longer
// holds (expired and re-queued, or completed elsewhere).
func (c *Coordinator) Heartbeat(req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	if req.Worker == "" {
		return api.HeartbeatResponse{}, fmt.Errorf("fabric: heartbeat without a worker name")
	}
	now := c.now()
	expiry := now.Add(c.cfg.LeaseTTL)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(req.Worker)
	c.reap(now)
	if err := c.failure(); err != nil {
		return api.HeartbeatResponse{}, err
	}
	c.mHeartbeats.Inc()
	var resp api.HeartbeatResponse
	for _, ci := range req.Chunks {
		holders, leased := c.leases[ci]
		if c.ledger.Has(ci) || !leased {
			resp.Canceled = append(resp.Canceled, ci)
			continue
		}
		if _, mine := holders[req.Worker]; !mine {
			resp.Canceled = append(resp.Canceled, ci)
			continue
		}
		holders[req.Worker] = expiry
	}
	c.updateGauges()
	return resp, nil
}

// Complete hands one chunk result to the ledger. The first result for a
// chunk wins; later copies (work stealing, expired-lease races) are verified
// bit-identical and acknowledged as duplicates — a mismatch means the
// campaign is not deterministic and is rejected loudly (the HTTP layer
// answers fault.ErrChunkConflict with 409 + CodeConflict). A refused result
// leaves the campaign as it was; a checkpoint that cannot be flushed fails
// it, and that failure is the answer.
func (c *Coordinator) Complete(req api.CompleteRequest) (api.CompleteResponse, error) {
	if req.Worker == "" {
		return api.CompleteResponse{}, fmt.Errorf("fabric: complete without a worker name")
	}
	if req.PlanHash != c.camp.PlanHashHex() {
		return api.CompleteResponse{}, fmt.Errorf("%w: plan fingerprint %q, campaign %q",
			fault.ErrChunkConflict, req.PlanHash, c.camp.PlanHashHex())
	}
	masks, err := api.DecodeMasks(req.Masks)
	if err != nil {
		return api.CompleteResponse{}, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	wi := c.touch(req.Worker)
	duplicate, err := c.ledger.Add(req.Chunk, masks)
	if err != nil {
		if c.ledger.Err() != nil {
			c.finish(nil, c.ledger.Err())
			return api.CompleteResponse{}, c.failure()
		}
		return api.CompleteResponse{}, err
	}
	if duplicate {
		c.mDuplicates.Inc()
		c.updateGauges()
		return api.CompleteResponse{Accepted: true, Duplicate: true}, nil
	}
	delete(c.leases, req.Chunk)
	c.removePending(req.Chunk)
	wi.completed++
	c.mCompleted.Inc()
	if c.ledger.Len() == c.camp.Plan.NumChunks() {
		c.finish(c.ledger.Result())
	}
	c.updateGauges()
	return api.CompleteResponse{Accepted: true}, nil
}

// removePending drops a chunk from the pending queue (it may have been
// re-queued by expiry while a late result was in flight). Callers hold
// c.mu.
func (c *Coordinator) removePending(ci int) {
	for i, p := range c.pending {
		if p == ci {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// errFailed marks a request answered with the error that ended the campaign
// (a checkpoint the coordinator could not flush): the coordinator's fault,
// not the requesting worker's, so the HTTP layer answers 500.
var errFailed = errors.New("fabric: campaign failed")

// failure is what Lease, Heartbeat and Complete answer once the campaign has
// ended with an error, nil while it has not. Callers hold c.mu.
func (c *Coordinator) failure() error {
	if c.finalErr == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errFailed, c.finalErr)
}

// finish ends the campaign — with the complete ledger's fold, or with the
// error that broke it — and releases Wait. Callers hold c.mu.
func (c *Coordinator) finish(res *fault.Result, err error) {
	if c.finished {
		return
	}
	c.finished, c.result, c.finalErr = true, res, err
	close(c.doneCh)
}

// Wait blocks until the campaign completes and returns the merged result.
func (c *Coordinator) Wait(ctx context.Context) (*fault.Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.doneCh:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result, c.finalErr
}

// Drained blocks until every joined worker has observed the finished
// campaign (received a Done lease response) or ctx expires — the polite
// shutdown window: exiting before workers see Done strands their final
// lease polls on a dead socket. Crashed workers never poll again, so
// callers bound the wait with a context deadline. Returns true if every
// worker drained.
func (c *Coordinator) Drained(ctx context.Context) bool {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		c.mu.Lock()
		drained := c.finished
		for _, wi := range c.workers {
			if !wi.sawDone {
				drained = false
				break
			}
		}
		c.mu.Unlock()
		if drained {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-tick.C:
		}
	}
}

// CheckpointFingerprint returns the canonical digest of the merged
// checkpoint; ok is false until the campaign completes.
func (c *Coordinator) CheckpointFingerprint() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.finished || c.finalErr != nil {
		return 0, false
	}
	return c.ledger.Fingerprint(), true
}

// Status snapshots campaign progress.
func (c *Coordinator) Status() api.FabricStatus {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := api.FabricStatus{
		Scenario:         c.camp.Spec.Scenario,
		TotalChunks:      c.camp.Plan.NumChunks(),
		DoneChunks:       c.ledger.Len(),
		Pending:          len(c.pending),
		Leased:           len(c.leases),
		Done:             c.finished && c.finalErr == nil,
		JobsDone:         c.ledger.JobsDone(),
		JobsTotal:        c.camp.Plan.TotalJobs(),
		LeaseExpirations: int64(c.mExpired.Value()),
		ShardsStolen:     int64(c.mStolen.Value()),
	}
	if st.JobsTotal > 0 {
		st.ProgressPercent = 100 * float64(st.JobsDone) / float64(st.JobsTotal)
	}
	// Extrapolate the ETA from chunks merged since this coordinator
	// started; chunks restored from a resumed checkpoint carry no timing
	// signal.
	if newDone := c.ledger.Len() - c.startDone; newDone > 0 && !c.finished {
		remaining := c.camp.Plan.NumChunks() - c.ledger.Len()
		st.ETAMillis = now.Sub(c.started).Milliseconds() * int64(remaining) / int64(newDone)
	}
	if st.Done {
		st.CheckpointFingerprint = strconv.FormatUint(c.ledger.Fingerprint(), 16)
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wi := c.workers[name]
		ws := api.FabricWorkerStatus{
			Worker:            name,
			Completed:         wi.completed,
			LastSeenMillisAgo: now.Sub(wi.lastSeen).Milliseconds(),
		}
		for ci, holders := range c.leases {
			if _, mine := holders[name]; mine {
				ws.Leased = append(ws.Leased, ci)
			}
		}
		sort.Ints(ws.Leased)
		st.Workers = append(st.Workers, ws)
	}
	return st
}

// Handler returns the coordinator's HTTP surface: the /v1/fabric protocol,
// /v1/fabric/status, /healthz and /metrics, all speaking the api types.
// Protocol routes run under the trace middleware: a worker's propagated
// trace carries through the coordinator's spans and log records, so one
// leased chunk is followable across both processes.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	post(c, mux, "join", 1<<20, func(r api.JoinRequest) string { return r.Worker },
		func(ctx context.Context, req api.JoinRequest) (any, error) {
			resp, err := c.Join(req)
			if err == nil {
				c.log.Info("worker joined",
					"worker", req.Worker,
					"chunks", resp.NumChunks,
					"trace_id", obs.TraceIDFrom(ctx))
			}
			return resp, err
		})
	post(c, mux, "lease", 1<<20, func(r api.LeaseRequest) string { return r.Worker },
		func(ctx context.Context, req api.LeaseRequest) (any, error) {
			resp, err := c.Lease(req)
			if err == nil && len(resp.Chunks) > 0 {
				c.log.Info("lease granted",
					"worker", req.Worker,
					"chunks", resp.Chunks,
					"stolen", resp.Stolen,
					"trace_id", obs.TraceIDFrom(ctx))
			}
			return resp, err
		})
	post(c, mux, "heartbeat", 1<<20, func(r api.HeartbeatRequest) string { return r.Worker },
		func(ctx context.Context, req api.HeartbeatRequest) (any, error) {
			return c.Heartbeat(req)
		})
	post(c, mux, "complete", 64<<20, func(r api.CompleteRequest) string { return r.Worker },
		func(ctx context.Context, req api.CompleteRequest) (any, error) {
			resp, err := c.Complete(req)
			if err == nil {
				c.mu.Lock()
				done, total := c.ledger.Len(), c.camp.Plan.NumChunks()
				c.mu.Unlock()
				c.log.Info("chunk completed",
					"worker", req.Worker,
					"chunk", req.Chunk,
					"duplicate", resp.Duplicate,
					"done", done,
					"total", total,
					"trace_id", obs.TraceIDFrom(ctx))
			}
			return resp, err
		})
	mux.HandleFunc("GET /v1/fabric/status", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.HealthResponse{Status: "ok"})
	})
	mux.Handle("GET /metrics", c.metrics.Handler())
	return api.Traced(mux)
}

// post registers the protocol route POST /v1/fabric/<op>: the body (at most
// limit bytes) decodes into Req or is answered 400, and call runs under a
// span joined to the propagated trace of the worker the request names, its
// outcome mapped to the common error envelope.
func post[Req any](c *Coordinator, mux *http.ServeMux, op string, limit int64, worker func(Req) string, call func(context.Context, Req) (any, error)) {
	mux.HandleFunc("POST /v1/fabric/"+op, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := api.ReadJSON(r, w, limit, &req); err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
			return
		}
		name := worker(req)
		ctx, span := c.tracer.Start(r.Context(), "fabric."+op, slog.String("worker", name))
		defer span.End()
		resp, err := call(ctx, req)
		if err == nil {
			api.WriteJSON(w, http.StatusOK, resp)
			return
		}
		status, code, level, outcome := http.StatusBadRequest, api.CodeBadRequest, slog.LevelWarn, " rejected"
		switch {
		case errors.Is(err, fault.ErrChunkConflict):
			status, code, outcome = http.StatusConflict, api.CodeConflict, " conflict"
		case errors.Is(err, errFailed):
			status, code, level, outcome = http.StatusInternalServerError, api.CodeInternal, slog.LevelError, " refused"
		}
		c.log.Log(ctx, level, op+outcome, "worker", name, "error", err, "trace_id", obs.TraceIDFrom(ctx))
		api.WriteError(w, status, code, "%v", err)
	})
}
