package fabric_test

import (
	"context"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/obs"
)

// testSpec is a campaign small enough to simulate in milliseconds but
// large enough to split into several chunks (48 FFs x 6 injections = 288
// jobs = 5 chunks of 64).
func testSpec() api.CampaignSpec {
	return api.CampaignSpec{
		Scenario:        "random/noise",
		Scale:           "small",
		Seed:            11,
		InjectionsPerFF: 6,
		CampaignSeed:    77,
		ChunkJobs:       64,
	}
}

// singleNodeFingerprint runs the spec in this process and returns the
// canonical checkpoint fingerprint — the reference every distributed test
// must hit exactly.
func singleNodeFingerprint(t *testing.T, spec api.CampaignSpec) uint64 {
	t.Helper()
	camp, err := fabric.BuildCampaign(spec, fault.RunnerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := camp.SingleNodeFingerprint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// fakeClock is a manually advanced coordinator clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// TestTwoWorkerCampaignMatchesSingleNode is the acceptance gate: a
// 2-worker distributed campaign over HTTP produces a merged checkpoint
// fingerprint-identical to the single-node run of the same spec.
func TestTwoWorkerCampaignMatchesSingleNode(t *testing.T) {
	spec := testSpec()
	want := singleNodeFingerprint(t, spec)

	ckPath := filepath.Join(t.TempDir(), "coord.ckpt")
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:           spec,
		LeaseTTL:       5 * time.Second,
		CheckpointPath: ckPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runWorkers(t, coord, 2); got != want {
		t.Fatalf("distributed fingerprint %x != single-node %x", got, want)
	}

	// The coordinator's on-disk checkpoint is the same artifact a
	// single-node run writes: loadable, fingerprint-identical.
	ck, err := fault.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Fingerprint() != want {
		t.Fatalf("persisted fingerprint %x != single-node %x", ck.Fingerprint(), want)
	}

	st := coord.Status()
	if !st.Done || st.DoneChunks != st.TotalChunks {
		t.Fatalf("status not done: %+v", st)
	}
	if st.CheckpointFingerprint == "" {
		t.Fatal("status missing checkpoint fingerprint")
	}

	// Resuming from the finished checkpoint completes without any worker.
	resumed, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:           spec,
		CheckpointPath: ckPath,
		Resume:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := resumed.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got, ok := resumed.CheckpointFingerprint(); !ok || got != want {
		t.Fatalf("resumed fingerprint %x (ok=%v), want %x", got, ok, want)
	}
}

// TestWorkerRunsSelectedBackend pins that a worker's leased chunks run on
// the Runner's one chunk executor — there is no backend left to select —
// read back from the worker's own campaign metrics: 256 lanes per batch, one
// chunk wall time per completed chunk, simulated cycles — and that the
// merged checkpoint is fingerprint-identical to the single-node run.
func TestWorkerRunsSelectedBackend(t *testing.T) {
	spec := testSpec()
	want := singleNodeFingerprint(t, spec)
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{Spec: spec, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	reg := obs.NewRegistry()
	w, err := fabric.NewWorker(fabric.WorkerConfig{
		Name:        "w0",
		Coordinator: srv.URL,
		Workers:     1,
		MaxChunks:   1,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, ok := coord.CheckpointFingerprint(); !ok || got != want {
		t.Fatalf("fingerprint %x (ok=%v), single-node %x", got, ok, want)
	}
	if got := reg.Gauge("ffr_campaign_lanes_per_batch", "").Value(); got != 256 {
		t.Fatalf("worker ran %v lanes per batch, want 256", got)
	}
	ran := w.Completed()
	if got := reg.Histogram("ffr_campaign_chunk_seconds", "", obs.DefBuckets).Count(); ran == 0 || got != uint64(ran) {
		t.Fatalf("%d chunk timings, completed %d chunks", got, ran)
	}
	if reg.Counter("ffr_campaign_simulated_cycles_total", "").Value() == 0 {
		t.Fatal("worker exported no simulated cycles")
	}
}

// TestLeaseExpiryRequeues pins the worker-crash path at the lease level: a
// chunk leased to a worker that never heartbeats returns to the pending
// queue after the TTL and is granted to the next requester.
func TestLeaseExpiryRequeues(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:           testSpec(),
		LeaseTTL:       10 * time.Second,
		MaxLeaseChunks: 1,
		Clock:          clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := coord.Lease(api.LeaseRequest{Worker: "crasher", Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(l1.Chunks) != 1 {
		t.Fatalf("lease granted %d chunks, want 1", len(l1.Chunks))
	}

	// Before expiry the chunk is not re-granted from pending (the next
	// grants come from the rest of the queue).
	clk.Advance(5 * time.Second)
	l2, err := coord.Lease(api.LeaseRequest{Worker: "other", Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(l2.Chunks) == 1 && l2.Chunks[0] == l1.Chunks[0] {
		t.Fatal("unexpired chunk re-granted from pending")
	}

	// Past expiry the crashed worker's chunk is first in line again.
	clk.Advance(6 * time.Second)
	l3, err := coord.Lease(api.LeaseRequest{Worker: "other", Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(l3.Chunks) != 1 || l3.Chunks[0] != l1.Chunks[0] {
		t.Fatalf("expired chunk not re-leased first: got %v, want [%d]", l3.Chunks, l1.Chunks[0])
	}
	if st := coord.Status(); st.LeaseExpirations == 0 {
		t.Fatal("expiry not counted")
	}

	// Heartbeats keep a lease alive across the TTL.
	l4, err := coord.Lease(api.LeaseRequest{Worker: "steady", Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second)
	if _, err := coord.Heartbeat(api.HeartbeatRequest{Worker: "steady", Chunks: l4.Chunks}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second)
	l5, err := coord.Lease(api.LeaseRequest{Worker: "other", Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(l5.Chunks) == 1 && l5.Chunks[0] == l4.Chunks[0] {
		t.Fatal("heartbeated lease expired anyway")
	}
}

// TestWorkerCrashRecovery kills a worker mid-campaign: the worker leases
// chunks over HTTP and vanishes without completing them. After the lease
// TTL a healthy worker picks up everything and the merged checkpoint still
// fingerprints identically to the single-node run (satellite: worker-crash
// coverage).
func TestWorkerCrashRecovery(t *testing.T) {
	spec := testSpec()
	want := singleNodeFingerprint(t, spec)

	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:           spec,
		LeaseTTL:       200 * time.Millisecond,
		MaxLeaseChunks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client, ctx := fabric.NewClient(srv.URL), context.Background()

	// The "crashing worker": joins, leases two chunks, dies. It never
	// heartbeats and never completes, exactly like a killed process.
	if _, err := client.Join(ctx, api.JoinRequest{Worker: "crasher"}); err != nil {
		t.Fatal(err)
	}
	crashed, err := client.Lease(ctx, api.LeaseRequest{Worker: "crasher", Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(crashed.Chunks) == 0 {
		t.Fatal("crasher got no chunks")
	}

	// Let the crasher's leases expire before anyone else asks for work, so
	// recovery deterministically goes through the expiry path rather than
	// work stealing.
	time.Sleep(250 * time.Millisecond)

	// A second worker is also canceled mid-run to exercise the
	// interrupted-lease path (it posts finished chunks before exiting).
	ireg := obs.NewRegistry()
	interrupted, err := fabric.NewWorker(fabric.WorkerConfig{
		Name: "interrupted", Coordinator: srv.URL, Workers: 1, Metrics: ireg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ictx, icancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		icancel()
	}()
	if err := interrupted.Run(ictx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted worker: %v", err)
	}
	if ran := int(ireg.Counter("ffr_campaign_chunks_completed_total", "").Value()); interrupted.Completed() != ran {
		t.Fatalf("interrupted worker simulated %d chunks and posted %d", ran, interrupted.Completed())
	}

	// The survivor finishes the campaign, re-leasing whatever expired.
	survivor, err := fabric.NewWorker(fabric.WorkerConfig{
		Name: "survivor", Coordinator: srv.URL, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := survivor.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	got, ok := coord.CheckpointFingerprint()
	if !ok || got != want {
		t.Fatalf("post-crash fingerprint %x (ok=%v), want %x", got, ok, want)
	}
	if st := coord.Status(); st.LeaseExpirations == 0 {
		t.Fatalf("crash recovery without lease expirations: %+v", st)
	}
}

// TestWorkStealing drains the pending queue with one slow holder and
// verifies the straggler chunk is stolen, the duplicate completion is
// verified identical, and a contradictory duplicate is rejected as a
// conflict.
func TestWorkStealing(t *testing.T) {
	spec := testSpec()
	camp, err := fabric.BuildCampaign(spec, fault.RunnerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	numChunks := camp.Plan.NumChunks()
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:           spec,
		LeaseTTL:       time.Hour, // nothing expires: stealing must not need expiry
		MaxLeaseChunks: numChunks,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client, ctx := fabric.NewClient(srv.URL), context.Background()

	// The slow worker leases every chunk.
	slow, err := client.Lease(ctx, api.LeaseRequest{Worker: "slow", Max: numChunks})
	if err != nil {
		t.Fatal(err)
	}
	if len(slow.Chunks) != numChunks {
		t.Fatalf("slow worker leased %d of %d chunks", len(slow.Chunks), numChunks)
	}

	// A fast worker finds the queue empty and steals a straggler.
	fast, err := client.Lease(ctx, api.LeaseRequest{Worker: "fast", Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Chunks) != 1 || fast.Stolen != 1 {
		t.Fatalf("steal not granted: %+v", fast)
	}
	stolen := fast.Chunks[0]

	// Simulate everything locally (the masks are deterministic, so any
	// node's copy is THE copy).
	all := make([]int, numChunks)
	for i := range all {
		all[i] = i
	}
	masks, err := camp.Plan.RunChunks(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}

	// Fast completes the stolen chunk first...
	resp, err := client.Complete(ctx, api.CompleteRequest{
		Worker: "fast", Chunk: stolen,
		PlanHash: camp.PlanHashHex(), Masks: api.EncodeMasks(masks[stolen]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || resp.Duplicate {
		t.Fatalf("stolen completion: %+v", resp)
	}
	// ...then the slow holder's identical copy arrives: duplicate, accepted.
	resp, err = client.Complete(ctx, api.CompleteRequest{
		Worker: "slow", Chunk: stolen,
		PlanHash: camp.PlanHashHex(), Masks: api.EncodeMasks(masks[stolen]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || !resp.Duplicate {
		t.Fatalf("duplicate completion: %+v", resp)
	}

	// A contradictory duplicate is a determinism violation: 409 + conflict
	// code through the common error envelope.
	bad := append([]uint64(nil), masks[stolen]...)
	bad[0] ^= 1
	_, err = client.Complete(ctx, api.CompleteRequest{
		Worker: "evil", Chunk: stolen,
		PlanHash: camp.PlanHashHex(), Masks: api.EncodeMasks(bad),
	})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeConflict {
		t.Fatalf("contradictory duplicate: err %v, want %s", err, api.CodeConflict)
	}

	// Slow finishes the rest; the campaign completes with steal bookkeeping.
	for _, ci := range slow.Chunks {
		if ci == stolen {
			continue
		}
		if _, err := client.Complete(ctx, api.CompleteRequest{
			Worker: "slow", Chunk: ci,
			PlanHash: camp.PlanHashHex(), Masks: api.EncodeMasks(masks[ci]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var st api.FabricStatus
	if err := api.NewClient(srv.URL).Do(ctx, http.MethodGet, "/v1/fabric/status", nil, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.ShardsStolen != 1 {
		t.Fatalf("final status: %+v", st)
	}
	want := singleNodeFingerprint(t, spec)
	if got, ok := coord.CheckpointFingerprint(); !ok || got != want {
		t.Fatalf("fingerprint %x (ok=%v), want %x", got, ok, want)
	}

	// Post-completion leases tell workers to exit.
	done, err := client.Lease(ctx, api.LeaseRequest{Worker: "slow", Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !done.Done {
		t.Fatalf("lease after completion: %+v", done)
	}
}

// TestCompleteValidation covers the protocol guards: foreign plan hash,
// bad chunk index, wrong mask count.
func TestCompleteValidation(t *testing.T) {
	spec := testSpec()
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	camp := coord.Campaign()
	if _, err := coord.Complete(api.CompleteRequest{
		Worker: "w", Chunk: 0, PlanHash: "deadbeef", Masks: []string{"0"},
	}); err == nil {
		t.Fatal("foreign plan hash accepted")
	}
	if _, err := coord.Complete(api.CompleteRequest{
		Worker: "w", Chunk: camp.Plan.NumChunks(), PlanHash: camp.PlanHashHex(), Masks: []string{"0"},
	}); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if _, err := coord.Complete(api.CompleteRequest{
		Worker: "w", Chunk: 0, PlanHash: camp.PlanHashHex(), Masks: []string{"0", "0", "0"},
	}); err == nil {
		t.Fatal("wrong mask count accepted")
	}
	if _, err := coord.Complete(api.CompleteRequest{
		Worker: "w", Chunk: 0, PlanHash: camp.PlanHashHex(), Masks: []string{"xyz"},
	}); err == nil {
		t.Fatal("unparseable mask accepted")
	}
}

// TestFailedCampaignAnswersInternal: a coordinator whose checkpoint cannot
// be flushed has failed, not its workers. The chunks merged before the first
// flush is due are accepted; the Complete that hit the failure (the fourth,
// the cadence's first flush) and every later Lease and Heartbeat answer 500
// internal naming the cause, a worker's Run returns an error instead of
// reporting the campaign complete, and Wait returns the flush error.
func TestFailedCampaignAnswersInternal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec: testSpec(), CheckpointPath: filepath.Join(dir, "campaign.ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	camp := coord.Campaign()
	const flushAt = 4 // the ledger's cadence: the fourth merged chunk flushes
	if n := camp.Plan.NumChunks(); n <= flushAt {
		t.Fatalf("fixture has %d chunks, want more than %d", n, flushAt)
	}
	done, err := camp.Plan.RunChunks(context.Background(), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client, ctx := fabric.NewClient(srv.URL), context.Background()
	internal := func(what string, err error) {
		t.Helper()
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError ||
			apiErr.Code != api.CodeInternal || !strings.Contains(apiErr.Message, dir) {
			t.Fatalf("%s: %v, want 500 %s naming the checkpoint", what, err, api.CodeInternal)
		}
	}
	for ci := range flushAt {
		_, err = client.Complete(ctx, api.CompleteRequest{
			Worker: "a", Chunk: ci, PlanHash: camp.PlanHashHex(), Masks: api.EncodeMasks(done[ci]),
		})
		if ci < flushAt-1 && err != nil {
			t.Fatalf("complete %d, before any flush is due: %v", ci, err)
		}
	}
	internal("complete", err)
	_, err = client.Lease(ctx, api.LeaseRequest{Worker: "b"})
	internal("lease", err)
	_, err = client.Heartbeat(ctx, api.HeartbeatRequest{Worker: "b", Chunks: []int{flushAt}})
	internal("heartbeat", err)

	w, err := fabric.NewWorker(fabric.WorkerConfig{Name: "c", Coordinator: srv.URL, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err == nil {
		t.Fatal("a worker of the failed campaign reported it complete")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := coord.Wait(ctx); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Wait returned %v, want the flush error", err)
	}
}

// TestInterruptedLeasePostsFinishedChunks: a worker cancelled mid-lease
// still hands the coordinator every chunk its pool finished — none waits out
// its lease TTL to be simulated again — and reports the cancellation.
func TestInterruptedLeasePostsFinishedChunks(t *testing.T) {
	// Chunks long enough (16 wide batches each) to be cancelled inside one.
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec: api.CampaignSpec{
			Scenario: "mac10ge/loopback", Scale: "small", Seed: 1,
			InjectionsPerFF: 16, CampaignSeed: 7, ChunkJobs: 4096,
		},
		LeaseTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	var completes atomic.Int32
	handler := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/fabric/complete" {
			completes.Add(1)
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	w, err := fabric.NewWorker(fabric.WorkerConfig{
		Name: "interrupted", Coordinator: srv.URL, Workers: 1, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// The first wide batch is through: a chunk of the first lease is
		// in flight, and the pool will finish it after the cancellation.
		for ctx.Err() == nil && reg.Counter("ffr_campaign_window_lane_cycles_total", "").Value() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted worker returned %v, want the cancellation", err)
	}

	finished := int(reg.Counter("ffr_campaign_chunks_completed_total", "").Value())
	st := coord.Status()
	if finished == 0 || finished == st.TotalChunks {
		t.Fatalf("the cancellation did not land mid-lease: %d of %d chunks simulated", finished, st.TotalChunks)
	}
	if got := int(completes.Load()); got != finished || w.Completed() != finished || st.DoneChunks != finished {
		t.Fatalf("pool finished %d chunks: %d complete requests, worker counts %d posted, coordinator holds %d",
			finished, got, w.Completed(), st.DoneChunks)
	}
}

// TestSeedZeroIsSeedOne: a spec that leaves the materialization seed unset
// builds seed 1's circuit and workload, as every other entry point does, and
// the resolved wire spec says so — so a worker, a coordinator and a corpus
// study given seed 0 measure the same campaign.
func TestSeedZeroIsSeedOne(t *testing.T) {
	golden := map[int64]string{}
	for _, seed := range []int64{0, 1, 2} {
		spec := testSpec()
		spec.Seed = seed
		camp, err := fabric.BuildCampaign(spec, fault.RunnerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if want := max(seed, 1); camp.Spec.Seed != want {
			t.Errorf("seed %d resolved to %d, want %d", seed, camp.Spec.Seed, want)
		}
		golden[seed] = camp.GoldenHashHex()
	}
	if golden[0] != golden[1] {
		t.Errorf("seed 0 has golden %s, seed 1 %s", golden[0], golden[1])
	}
	if golden[2] == golden[1] {
		t.Fatal("seeds 1 and 2 share a golden trace: the scenario does not depend on its seed")
	}
}
