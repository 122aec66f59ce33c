package fabric

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/fault"
	"repro/internal/obs"
)

// WorkerConfig parameterizes a fabric worker.
type WorkerConfig struct {
	// Name identifies the worker to the coordinator; must be unique per
	// campaign.
	Name string
	// Coordinator is the coordinator base URL.
	Coordinator string
	// Client overrides the protocol client (tests); nil builds one from
	// Coordinator.
	Client *Client
	// Workers bounds the local simulation pool (0 = GOMAXPROCS).
	Workers int
	// MaxChunks caps chunks requested per lease (0 = coordinator's cap).
	MaxChunks int
	// Logger optionally receives structured records (join, lease grants,
	// chunk completions) carrying the trace ID each lease cycle runs
	// under; nil is silent.
	Logger *slog.Logger
	// Metrics optionally receives the local chunk runner's ffr_campaign_*
	// metric families; nil disables campaign metrics.
	Metrics *obs.Registry
	// Tracer optionally journals the worker's spans (one trace per lease
	// cycle: lease → simulate → complete); nil disables journaling while
	// trace IDs still propagate to the coordinator.
	Tracer *obs.Tracer
}

// completeGrace is how long an interrupted worker keeps posting the chunks
// it finished: long enough for a lease's masks, short enough that a dead
// coordinator cannot keep a cancelled worker alive.
const completeGrace = 10 * time.Second

// Worker is the fabric worker loop: join, verify the campaign contract,
// then lease→simulate→complete until the coordinator reports done.
type Worker struct {
	cfg    WorkerConfig
	client *Client
	camp   *Campaign
	log    *slog.Logger
	tracer *obs.Tracer

	mu   sync.Mutex
	held []int // chunks under lease, heartbeated until completed

	// Completed counts chunks this worker posted (including duplicates).
	completed int
}

// NewWorker validates the config; the campaign is materialized in Run (it
// needs the coordinator's spec).
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("fabric: worker needs a name")
	}
	client := cfg.Client
	if client == nil {
		if cfg.Coordinator == "" {
			return nil, fmt.Errorf("fabric: worker needs a coordinator URL")
		}
		client = NewClient(cfg.Coordinator)
	}
	return &Worker{
		cfg:    cfg,
		client: client,
		log:    obs.Component(cfg.Logger, "worker").With("worker", cfg.Name),
		tracer: cfg.Tracer,
	}, nil
}

// Completed returns the number of chunk results this worker posted.
func (w *Worker) Completed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.completed
}

// hold/release maintain the heartbeat set.
func (w *Worker) hold(chunks []int) {
	w.mu.Lock()
	w.held = append(w.held, chunks...)
	w.mu.Unlock()
}

func (w *Worker) release(ci int) {
	w.mu.Lock()
	for i, c := range w.held {
		if c == ci {
			w.held = append(w.held[:i], w.held[i+1:]...)
			break
		}
	}
	w.mu.Unlock()
}

func (w *Worker) heldChunks() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int(nil), w.held...)
}

// Run executes the worker loop until the campaign completes, the context
// is canceled, or the campaign contract cannot be satisfied. On
// cancellation mid-chunk it posts whatever chunks finished before
// returning, so the lease is not wasted.
func (w *Worker) Run(ctx context.Context) error {
	joinCtx, joinSpan := w.tracer.Start(ctx, "fabric.join")
	join, err := w.client.Join(joinCtx, api.JoinRequest{Worker: w.cfg.Name})
	joinSpan.End()
	if err != nil {
		return fmt.Errorf("fabric: worker %s join: %w", w.cfg.Name, err)
	}
	// Prepared once: every lease below runs on this one plan.
	camp, err := BuildCampaign(join.Spec, fault.RunnerConfig{
		Workers: w.cfg.Workers, Metrics: w.cfg.Metrics, Logger: w.cfg.Logger,
	})
	if err != nil {
		return fmt.Errorf("fabric: worker %s materializing campaign: %w", w.cfg.Name, err)
	}
	if err := camp.CheckAgainst(join); err != nil {
		return err
	}
	w.camp = camp
	w.log.Info("joined",
		"scenario", camp.Spec.Scenario,
		"chunks", join.NumChunks,
		"chunk_jobs", join.ChunkJobs)

	// Heartbeats come three times per lease TTL, so one lost request
	// never lets a held lease expire.
	hb := time.Duration(join.LeaseTTLMillis) * time.Millisecond / 3
	if hb <= 0 {
		hb = time.Second
	}
	hbCtx, stopHB := context.WithCancel(context.Background())
	defer stopHB()
	go w.heartbeatLoop(hbCtx, hb)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Each lease cycle (lease → simulate → complete) runs under one
		// fresh trace, propagated to the coordinator on every request it
		// makes, so one chunk's journey is followable across both
		// processes' logs and span journals.
		cycleCtx := obs.ContextWithTrace(ctx,
			obs.Trace{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()})
		lease, err := w.client.Lease(cycleCtx, api.LeaseRequest{Worker: w.cfg.Name, Max: w.cfg.MaxChunks})
		if err != nil {
			return fmt.Errorf("fabric: worker %s lease: %w", w.cfg.Name, err)
		}
		if lease.Done {
			w.log.Info("campaign complete")
			return nil
		}
		if len(lease.Chunks) == 0 {
			retry := time.Duration(lease.RetryMillis) * time.Millisecond
			if retry <= 0 {
				retry = DefaultRetryMillis * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retry):
			}
			continue
		}
		w.log.Info("lease granted",
			"chunks", lease.Chunks,
			"stolen", lease.Stolen,
			"trace_id", obs.TraceIDFrom(cycleCtx))
		w.hold(lease.Chunks)
		runErr := w.runLease(cycleCtx, lease.Chunks)
		if runErr != nil {
			return runErr
		}
	}
}

// runLease simulates the leased chunks and posts each result. On
// cancellation it still posts the chunks that finished, then reports the
// context error.
func (w *Worker) runLease(ctx context.Context, chunks []int) error {
	simCtx, span := w.tracer.Start(ctx, "fabric.simulate", slog.Int("chunks", len(chunks)))
	done, runErr := w.camp.Plan.RunChunks(simCtx, chunks)
	span.End()
	if runErr != nil && !errors.Is(runErr, fault.ErrInterrupted) {
		return fmt.Errorf("fabric: worker %s simulating: %w", w.cfg.Name, runErr)
	}
	// A cancelled ctx must not fail the posts — the finished chunks would
	// wait out their lease to be simulated again — it only bounds them. The
	// trace still propagates.
	postCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	defer context.AfterFunc(ctx, func() { time.AfterFunc(completeGrace, cancel) })()
	for _, ci := range slices.Sorted(maps.Keys(done)) {
		resp, err := w.client.Complete(postCtx, api.CompleteRequest{
			Worker:   w.cfg.Name,
			Chunk:    ci,
			PlanHash: w.camp.PlanHashHex(),
			Masks:    api.EncodeMasks(done[ci]),
		})
		if err != nil {
			return fmt.Errorf("fabric: worker %s completing chunk %d: %w", w.cfg.Name, ci, err)
		}
		w.release(ci)
		w.mu.Lock()
		w.completed++
		w.mu.Unlock()
		w.log.Info("chunk completed",
			"chunk", ci,
			"duplicate", resp.Duplicate,
			"trace_id", obs.TraceIDFrom(ctx))
	}
	if runErr != nil {
		// Interrupted: the unfinished chunks stay held until their leases
		// expire; report the cancellation.
		return context.Cause(ctx)
	}
	return nil
}

// heartbeatLoop extends the worker's leases until ctx stops it, an
// in-flight request included. Heartbeat failures are non-fatal (the lease
// simply expires); cancellations reported by the coordinator drop chunks
// from the held set so they stop being heartbeated.
func (w *Worker) heartbeatLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		held := w.heldChunks()
		if len(held) == 0 {
			continue
		}
		resp, err := w.client.Heartbeat(ctx, api.HeartbeatRequest{Worker: w.cfg.Name, Chunks: held})
		if err != nil {
			w.log.Info("heartbeat failed", "error", err)
			continue
		}
		for _, ci := range resp.Canceled {
			w.release(ci)
		}
	}
}
