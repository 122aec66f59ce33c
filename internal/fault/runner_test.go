package fault_test

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/sim"
)

// runnerFixture returns a runner over the small MAC with the given config
// filled in.
func newRunner(t *testing.T, cfg fault.RunnerConfig) (*fault.Runner, []fault.Job) {
	t.Helper()
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	r, err := fault.NewGoldenRunner(p, bench.Stim, bench.Monitors, cls, cfg)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	jobs := fault.NewModelPlan(fault.Model{}, p.NumFFs(), 2, bench.ActiveCycles, 21)
	return r, jobs
}

func sameResult(t *testing.T, a, b *fault.Result) {
	t.Helper()
	if a.TotalRuns != b.TotalRuns || a.Batches != b.Batches {
		t.Fatalf("shape differs: %d/%d runs, %d/%d batches", a.TotalRuns, b.TotalRuns, a.Batches, b.Batches)
	}
	for ff := range a.FDR {
		if a.Failures[ff] != b.Failures[ff] || a.Injections[ff] != b.Injections[ff] || a.FDR[ff] != b.FDR[ff] {
			t.Fatalf("FF %d differs: %d/%d failures, %d/%d injections, %v/%v FDR",
				ff, a.Failures[ff], b.Failures[ff], a.Injections[ff], b.Injections[ff], a.FDR[ff], b.FDR[ff])
		}
	}
	if !slices.Equal(a.FailedJobs, b.FailedJobs) {
		t.Fatal("per-job outcome bits differ")
	}
}

func TestRunnerConfigValidation(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	bad := []fault.RunnerConfig{
		{ChunkJobs: -1},
		{Workers: -1},
		{Resume: true}, // resume without a checkpoint path
	}
	for i, cfg := range bad {
		if _, err := fault.NewGoldenRunner(p, bench.Stim, bench.Monitors, cls, cfg); err == nil {
			t.Fatalf("case %d must fail: %+v", i, cfg)
		}
	}
	snaps := sim.NewSnapshots(p, bench.Stim, 0)
	golden, _ := sim.Run(sim.NewEngine(p), bench.Stim, sim.RunConfig{Monitors: bench.Monitors, Snapshots: snaps})
	if _, err := fault.NewRunner(nil, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{Golden: golden, Snapshots: snaps}); err == nil {
		t.Fatal("nil program accepted")
	}

}

func TestRunnerRejectsBadJobs(t *testing.T) {
	r, _ := newRunner(t, fault.RunnerConfig{})
	if _, err := r.RunContext(context.Background(), []fault.Job{{FF: -1, Cycle: 0}}); err == nil {
		t.Fatal("negative FF accepted")
	}
	if _, err := r.RunContext(context.Background(), []fault.Job{{FF: 0, Cycle: 99999}}); err == nil {
		t.Fatal("out-of-range cycle accepted")
	}
}

// The runner must agree bit-for-bit with a default-configured single-shot
// campaign (what RunCampaign was) regardless of chunk size or worker count.
func TestRunnerMatchesRunCampaign(t *testing.T) {
	r, jobs := newRunner(t, fault.RunnerConfig{})
	want, err := r.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatalf("default campaign: %v", err)
	}
	for _, chunk := range []int{sim.Lanes, 3 * sim.Lanes, 1 << 20} {
		for _, workers := range []int{1, 3} {
			r, jobs := newRunner(t, fault.RunnerConfig{ChunkJobs: chunk, Workers: workers})
			got, err := r.RunContext(context.Background(), jobs)
			if err != nil {
				t.Fatalf("Run(chunk=%d,workers=%d): %v", chunk, workers, err)
			}
			sameResult(t, want, got)
		}
	}
}

func TestRunnerChunkGeometry(t *testing.T) {
	// 100 jobs in chunks of 70 → rounded to 2 batches (128 jobs) per
	// chunk → a single chunk of 2 batches.
	r, jobs := newRunner(t, fault.RunnerConfig{ChunkJobs: 70, Workers: 1})
	res, err := r.RunContext(context.Background(), jobs[:100])
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Chunks != 1 || res.Batches != 2 {
		t.Fatalf("geometry = %d chunks, %d batches; want 1, 2", res.Chunks, res.Batches)
	}
	// One-batch chunks.
	r2, _ := newRunner(t, fault.RunnerConfig{ChunkJobs: sim.Lanes, Workers: 2})
	res2, err := r2.RunContext(context.Background(), jobs[:100])
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res2.Chunks != 2 || res2.Batches != 2 {
		t.Fatalf("geometry = %d chunks, %d batches; want 2, 2", res2.Chunks, res2.Batches)
	}
}

// TestRunnerGoldenReuse: the supplied golden run is the one the campaign
// pins and classifies against, and it can be shared between runners.
func TestRunnerGoldenReuse(t *testing.T) {
	p, bench := smallMAC(t)
	snaps := sim.NewSnapshots(p, bench.Stim, 0)
	golden, _ := sim.Run(sim.NewEngine(p), bench.Stim, sim.RunConfig{Monitors: bench.Monitors, Snapshots: snaps})

	var results [2]*fault.Result
	for i := range results {
		r, jobs := newRunner(t, fault.RunnerConfig{Golden: golden, Snapshots: snaps})
		pl, err := r.Prepare(jobs[:sim.Lanes])
		if err != nil {
			t.Fatal(err)
		}
		if _, got := pl.Hashes(); got != durable.Hash(golden.Fingerprint()) {
			t.Fatalf("plan pins golden %v, supplied trace is %x", got, golden.Fingerprint())
		}
		if results[i], err = r.RunContext(context.Background(), jobs[:sim.Lanes]); err != nil {
			t.Fatalf("Run with shared golden: %v", err)
		}
	}
	sameResult(t, results[0], results[1])
}

func TestRunnerProgress(t *testing.T) {
	var seen []fault.Progress
	r, jobs := newRunner(t, fault.RunnerConfig{
		ChunkJobs: sim.Lanes,
		Workers:   2,
		OnProgress: func(p fault.Progress) {
			seen = append(seen, p)
		},
	})
	res, err := r.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(seen) != res.Chunks {
		t.Fatalf("%d progress reports for %d chunks", len(seen), res.Chunks)
	}
	for i, p := range seen {
		if p.ChunksTotal != res.Chunks || p.JobsTotal != res.TotalRuns {
			t.Fatalf("report %d totals = %+v", i, p)
		}
		if i > 0 && p.ChunksDone <= seen[i-1].ChunksDone {
			t.Fatalf("progress not monotonic: %d then %d", seen[i-1].ChunksDone, p.ChunksDone)
		}
	}
	last := seen[len(seen)-1]
	if last.ChunksDone != res.Chunks || last.JobsDone != res.TotalRuns {
		t.Fatalf("final report incomplete: %+v", last)
	}
}

// The acceptance-criterion test: a campaign killed mid-run and resumed from
// its checkpoint produces bit-identical per-FF results to the same campaign
// run uninterrupted.
func TestRunnerInterruptResumeBitIdentical(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ffr")

	// Reference: uninterrupted run.
	r, jobs := newRunner(t, fault.RunnerConfig{ChunkJobs: sim.Lanes, Workers: 2})
	want, err := r.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if want.Chunks < 4 {
		t.Fatalf("fixture too small to interrupt meaningfully: %d chunks", want.Chunks)
	}

	// Interrupted run: cancel after the second completed chunk, before the
	// first periodic flush, so the checkpoint is the interrupt's flush.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ri, _ := newRunner(t, fault.RunnerConfig{
		ChunkJobs:      sim.Lanes,
		Workers:        2,
		CheckpointPath: ckpt,
		OnProgress: func(p fault.Progress) {
			if p.ChunksDone >= 2 {
				cancel()
			}
		},
	})
	if _, err := ri.RunContext(ctx, jobs); !errors.Is(err, fault.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	ck, err := fault.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("checkpoint after interrupt: %v", err)
	}
	if len(ck.Chunks) == 0 || len(ck.Chunks) >= want.Chunks {
		t.Fatalf("checkpoint has %d of %d chunks; interrupt did not land mid-run", len(ck.Chunks), want.Chunks)
	}

	// Resume and compare bit-for-bit.
	rr, _ := newRunner(t, fault.RunnerConfig{
		ChunkJobs:      sim.Lanes,
		Workers:        2,
		CheckpointPath: ckpt,
		Resume:         true,
	})
	got, err := rr.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got.ResumedChunks != len(ck.Chunks) {
		t.Fatalf("resumed %d chunks, checkpoint held %d", got.ResumedChunks, len(ck.Chunks))
	}
	sameResult(t, want, got)

	// A second resume of the now-complete checkpoint restores everything.
	again, err := rr.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatalf("re-run from complete checkpoint: %v", err)
	}
	if again.ResumedChunks != want.Chunks {
		t.Fatalf("complete checkpoint resumed %d of %d chunks", again.ResumedChunks, want.Chunks)
	}
	sameResult(t, want, again)
}

func TestRunnerResumeRejectsForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.ffr")

	r, jobs := newRunner(t, fault.RunnerConfig{
		ChunkJobs:      sim.Lanes,
		CheckpointPath: ckpt,
	})
	if _, err := r.RunContext(context.Background(), jobs); err != nil {
		t.Fatalf("seeding checkpoint: %v", err)
	}

	// A different plan (different seed) must be rejected.
	p, bench := smallMAC(t)
	other := fault.NewModelPlan(fault.Model{}, p.NumFFs(), 2, bench.ActiveCycles, 22)
	rr, _ := newRunner(t, fault.RunnerConfig{
		ChunkJobs:      sim.Lanes,
		CheckpointPath: ckpt,
		Resume:         true,
	})
	if _, err := rr.RunContext(context.Background(), other); !errors.Is(err, fault.ErrCheckpointMismatch) {
		t.Fatalf("foreign plan resumed: %v", err)
	}

	// Different shard geometry must be rejected too.
	rg, _ := newRunner(t, fault.RunnerConfig{
		ChunkJobs:      2 * sim.Lanes,
		CheckpointPath: ckpt,
		Resume:         true,
	})
	if _, err := rg.RunContext(context.Background(), jobs); !errors.Is(err, fault.ErrCheckpointMismatch) {
		t.Fatalf("mismatched geometry resumed: %v", err)
	}
}

// Resuming under a different failure criterion must be rejected: failure
// masks classified with and without the statistics readout are not
// mergeable.
func TestRunnerResumeRejectsDifferentCriterion(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ffr")
	p, bench := smallMAC(t)
	jobs := fault.NewModelPlan(fault.Model{}, p.NumFFs(), 2, bench.ActiveCycles, 21)

	strict, err := fault.NewGoldenRunner(p, bench.Stim, bench.Monitors,
		fault.NewMACClassifier(bench, true),
		fault.RunnerConfig{ChunkJobs: sim.Lanes, CheckpointPath: ckpt})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := strict.RunContext(context.Background(), jobs); err != nil {
		t.Fatalf("seeding checkpoint: %v", err)
	}

	lax, err := fault.NewGoldenRunner(p, bench.Stim, bench.Monitors,
		fault.NewMACClassifier(bench, false),
		fault.RunnerConfig{ChunkJobs: sim.Lanes, CheckpointPath: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := lax.RunContext(context.Background(), jobs); !errors.Is(err, fault.ErrCheckpointMismatch) {
		t.Fatalf("different criterion resumed: %v", err)
	}
}

// An interrupt landing before the first periodic flush must still leave a
// resumable checkpoint behind.
func TestRunnerInterruptBeforeFirstFlushWritesCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ffr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, jobs := newRunner(t, fault.RunnerConfig{
		ChunkJobs:      sim.Lanes,
		Workers:        1,
		CheckpointPath: ckpt,
		OnProgress: func(p fault.Progress) {
			cancel()
		},
	})
	if _, err := r.RunContext(ctx, jobs); !errors.Is(err, fault.ErrInterrupted) {
		t.Fatalf("run returned %v, want ErrInterrupted", err)
	}
	ck, err := fault.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint after early interrupt: %v", err)
	}
	if len(ck.Chunks) == 0 || len(ck.Chunks) >= fault.CheckpointEvery {
		t.Fatalf("checkpoint holds %d completed chunks, want 1 to %d: the interrupt's flush, not a periodic one",
			len(ck.Chunks), fault.CheckpointEvery-1)
	}
}

// TestLedgerFlushCadence pins the checkpoint cadence: read from OnProgress,
// the file holds every CheckpointEvery-th merged chunk — 4⌊k/4⌋ of the k
// merged so far, no file at all before the fourth — and, after the last
// chunk, every chunk of the plan.
func TestLedgerFlushCadence(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ffr")
	var seen []int
	var fail error
	r, jobs := newRunner(t, fault.RunnerConfig{
		ChunkJobs:      sim.Lanes,
		Workers:        2,
		CheckpointPath: ckpt,
		OnProgress: func(p fault.Progress) {
			held := 0
			ck, err := fault.LoadCheckpoint(ckpt)
			switch {
			case err == nil:
				held = len(ck.Chunks)
			case !errors.Is(err, fs.ErrNotExist):
				fail = err
			}
			want := p.ChunksDone / fault.CheckpointEvery * fault.CheckpointEvery
			if p.ChunksDone == p.ChunksTotal {
				want = p.ChunksTotal
			}
			if held != want && fail == nil {
				fail = fmt.Errorf("after %d of %d merged chunks the checkpoint holds %d, want %d",
					p.ChunksDone, p.ChunksTotal, held, want)
			}
			seen = append(seen, p.ChunksDone)
		},
	})
	res, err := r.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatal(fail)
	}
	if res.Chunks < 9 || res.Chunks%fault.CheckpointEvery == 0 {
		t.Fatalf("fixture has %d chunks: want at least 9, the last one off the cadence", res.Chunks)
	}
	if len(seen) != res.Chunks || seen[len(seen)-1] != res.Chunks {
		t.Fatalf("progress reported after chunks %v, want 1..%d", seen, res.Chunks)
	}
}

func TestRunnerResumeWithoutCheckpointFileStartsFresh(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "never-written.ffr")
	r, jobs := newRunner(t, fault.RunnerConfig{
		ChunkJobs:      sim.Lanes,
		CheckpointPath: ckpt,
		Resume:         true,
	})
	res, err := r.RunContext(context.Background(), jobs[:sim.Lanes])
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ResumedChunks != 0 {
		t.Fatalf("resumed %d chunks from a nonexistent checkpoint", res.ResumedChunks)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written on completion: %v", err)
	}
}
