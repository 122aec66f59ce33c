package fault_test

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// The campaign-equivalence suite: the Runner (cycle-clustered packing +
// golden-snapshot fast-forward + streaming early exit + straggler repacking
// on the compiled kernel: gate fusion + dead-fanout pruning + wide batches)
// must produce bit-identical per-target results and checkpoint/resume
// behavior versus the reference — a full replay of every 64-lane batch,
// packed in plan order, on the interpreter, folded on its own
// (fault.ReferenceResult) — across the MAC, every registered corpus scenario
// (which includes the random netlist family), a TMR-hardened netlist and the
// edge cycles where off-by-one bugs would hide: flips at cycle 0, the last
// active cycle, the last stimulus cycle and snapshot boundaries. The two
// sides pack differently, so the comparison also checks the Runner's fold.

// reference replays the plan on the interpreter under cfg's model and chunk
// geometry and folds the masks into a Result.
func reference(t *testing.T, p *sim.Program, stim *sim.Stimulus, monitors []int,
	cls fault.Classifier, jobs []fault.Job, cfg fault.RunnerConfig) *fault.Result {
	t.Helper()
	r, err := fault.NewGoldenRunner(p, stim, monitors, cls, cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	res, err := fault.ReferenceResult(r, jobs)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return res
}

// assertEquivalent runs one plan with the given model (zero: SEU) and
// requires bit-identical results against the plan-order reference, which it
// returns.
func assertEquivalent(t *testing.T, p *sim.Program, stim *sim.Stimulus, monitors []int,
	cls fault.Classifier, model fault.Model, jobs []fault.Job) *fault.Result {
	t.Helper()
	ref := reference(t, p, stim, monitors, cls, jobs, fault.RunnerConfig{Model: model})
	res, err := runJobs(p, stim, monitors, cls, jobs, fault.RunnerConfig{Model: model, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedCycles > res.ReplayCycles {
		t.Fatalf("simulated %d > %d replay cycles", res.SimulatedCycles, res.ReplayCycles)
	}
	if res.TotalRuns != ref.TotalRuns || res.Batches != ref.Batches {
		t.Fatal("shape differs from reference")
	}
	for i := range ref.FDR {
		if res.Failures[i] != ref.Failures[i] || res.Injections[i] != ref.Injections[i] ||
			res.FDR[i] != ref.FDR[i] {
			t.Fatalf("target %d = %d/%d failures, reference %d/%d",
				i, res.Failures[i], res.Injections[i], ref.Failures[i], ref.Injections[i])
		}
	}
	if !slices.Equal(res.FailedJobs, ref.FailedJobs) {
		t.Fatal("per-job outcome bits differ from the reference's")
	}
	return ref
}

// TestEquivalenceMAC pins the incremental path on the MAC classifier (the
// paper's packet-level criterion, streaming-capable).
func TestEquivalenceMAC(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	jobs := fault.NewModelPlan(fault.Model{}, p.NumFFs(), 3, bench.ActiveCycles, 77)
	assertEquivalent(t, p, bench.Stim, bench.Monitors, cls, fault.Model{}, jobs)
}

// TestEquivalenceMACNoStats covers the criterion variant without the
// statistics readout.
func TestEquivalenceMACNoStats(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, false)
	jobs := fault.NewModelPlan(fault.Model{}, p.NumFFs(), 2, bench.ActiveCycles, 78)
	assertEquivalent(t, p, bench.Stim, bench.Monitors, cls, fault.Model{}, jobs)
}

// TestEquivalenceCorpus sweeps every registered scenario — the structured
// DUT families and the random netlist family, under both the exact and the
// MAC classifier (whatever each workload registers).
func TestEquivalenceCorpus(t *testing.T) {
	for _, sc := range corpus.List() {
		sc := sc
		t.Run(sc.ID(), func(t *testing.T) {
			m, err := sc.Materialize(corpus.ScaleSmall, 1)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			jobs := fault.NewModelPlan(fault.Model{}, m.NumFFs(), 2, m.Bench.ActiveCycles, 9)
			assertEquivalent(t, m.Program, m.Bench.Stim, m.Bench.Monitors, m.Bench.Classifier, fault.Model{}, jobs)
		})
	}
}

// TestEquivalenceTMRHardened runs the suite on a TMR-hardened
// materialization of a corpus scenario: the rewrite triples flip-flops and
// inserts majority voters, so the kernel compiler sees the voter's AOI/OAI
// structure and the pruner a changed fanout cone — the hardened netlist
// must classify identically to the reference.
func TestEquivalenceTMRHardened(t *testing.T) {
	sc, err := corpus.Find("mac10ge/loopback")
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	mh, err := sc.MaterializeWith(corpus.ScaleSmall, 1, func(nl *netlist.Netlist) error {
		return circuit.ApplyTMR(nl, []int{0, 1, 2, 3})
	})
	if err != nil {
		t.Fatalf("materialize hardened: %v", err)
	}
	jobs := fault.NewModelPlan(fault.Model{}, mh.NumFFs(), 2, mh.Bench.ActiveCycles, 9)
	assertEquivalent(t, mh.Program, mh.Bench.Stim, mh.Bench.Monitors, mh.Bench.Classifier, fault.Model{}, jobs)
}

// TestEquivalenceEdgeCycles targets the boundary cases: flips at cycle 0,
// at snapshot boundaries (and their neighbours), at the last active cycle
// and at the very last stimulus cycle.
func TestEquivalenceEdgeCycles(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	every := sim.DefaultSnapshotEvery
	edges := []int{0, 1, every - 1, every, every + 1, 2 * every,
		bench.ActiveCycles - 1, bench.Stim.Cycles() - 1}
	var jobs []fault.Job
	for i := 0; i < 3*64; i++ {
		jobs = append(jobs, fault.Job{
			FF:    (i * 7) % p.NumFFs(),
			Cycle: edges[i%len(edges)],
		})
	}
	assertEquivalent(t, p, bench.Stim, bench.Monitors, cls, fault.Model{}, jobs)
}

// TestEquivalenceSnapshotCadence pins that the snapshot cadence never
// changes results, only cost.
func TestEquivalenceSnapshotCadence(t *testing.T) {
	p, bench := smallMAC(t)
	jobs := fault.NewModelPlan(fault.Model{}, p.NumFFs(), 2, bench.ActiveCycles, 13)
	var ref *fault.Result
	for _, every := range []int{1, 3, sim.DefaultSnapshotEvery, 64, 1 << 20} {
		cls := fault.NewMACClassifier(bench, true)
		res, err := runJobs(p, bench.Stim, bench.Monitors, cls, jobs,
			fault.RunnerConfig{Snapshots: sim.NewSnapshots(p, bench.Stim, every), Workers: 2})
		if err != nil {
			t.Fatalf("cadence %d: %v", every, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for ff := range ref.FDR {
			if res.FDR[ff] != ref.FDR[ff] {
				t.Fatalf("cadence %d changes FDR[%d]: %v vs %v", every, ff, res.FDR[ff], ref.FDR[ff])
			}
		}
	}
}

// TestEquivalenceCheckpointResumeIncremental is the resume half of the
// acceptance criterion: an interrupted clustered campaign resumed from its
// checkpoint matches the uninterrupted reference replay bit for bit, and
// reports the cycles it did not re-simulate as resumed.
func TestEquivalenceCheckpointResumeIncremental(t *testing.T) {
	p, bench := smallMAC(t)
	jobs := fault.NewModelPlan(fault.Model{}, p.NumFFs(), 2, bench.ActiveCycles, 21)
	ckpt := filepath.Join(t.TempDir(), "campaign.ffr")

	newCls := func() fault.Classifier { return fault.NewMACClassifier(bench, true) }

	want := reference(t, p, bench.Stim, bench.Monitors, newCls(), jobs,
		fault.RunnerConfig{ChunkJobs: sim.Lanes})

	// Interrupt the run after two chunks.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ri, err := fault.NewGoldenRunner(p, bench.Stim, bench.Monitors, newCls(), fault.RunnerConfig{
		ChunkJobs:      sim.Lanes,
		Workers:        2,
		CheckpointPath: ckpt,
		OnProgress: func(pr fault.Progress) {
			if pr.ChunksDone >= 2 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if _, err := ri.RunContext(ctx, jobs); !errors.Is(err, fault.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v", err)
	}
	ck, err := fault.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if got := ck.Schedule; got != "clustered" {
		t.Fatalf("checkpoint schedule %q, want clustered", got)
	}
	if len(ck.Chunks) == 0 || len(ck.Chunks) >= want.Chunks {
		t.Fatalf("interrupt did not land mid-run (%d of %d chunks)", len(ck.Chunks), want.Chunks)
	}

	rr, err := fault.NewGoldenRunner(p, bench.Stim, bench.Monitors, newCls(), fault.RunnerConfig{
		ChunkJobs:      sim.Lanes,
		Workers:        2,
		CheckpointPath: ckpt,
		Resume:         true,
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	got, err := rr.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.ResumedChunks != len(ck.Chunks) {
		t.Fatalf("resumed %d chunks, checkpoint held %d", got.ResumedChunks, len(ck.Chunks))
	}
	sameResult(t, want, got)
	// Resumed chunks contribute no simulated cycles.
	if got.ReplayCycles != int64(want.Batches-got.ResumedChunks)*int64(bench.Stim.Cycles()) {
		t.Fatalf("replay cycles %d do not match %d computed batches",
			got.ReplayCycles, want.Batches-got.ResumedChunks)
	}
}

// TestRunnerValidatesIncrementalConfig covers the new config surface.
func TestRunnerValidatesIncrementalConfig(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)

	filled := sim.NewSnapshots(p, bench.Stim, 8)
	golden, _ := sim.Run(sim.NewEngine(p), bench.Stim, sim.RunConfig{Monitors: bench.Monitors, Snapshots: filled})
	if _, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{Golden: golden, Snapshots: filled}); err != nil {
		t.Fatalf("a golden run at cadence 8 rejected: %v", err)
	}
	if _, err := fault.NewRunner(p, bench.Stim, nil, cls,
		fault.RunnerConfig{Golden: golden, Snapshots: filled}); err == nil {
		t.Fatal("runner accepted an empty monitor set")
	}
	// The golden run is an input: the runner simulates none of its own.
	if _, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{Snapshots: filled}); err == nil {
		t.Fatal("runner accepted a nil golden trace")
	}
	if _, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{Golden: golden}); err == nil {
		t.Fatal("runner accepted nil snapshots")
	}
	// An unfilled snapshot set must be rejected up front.
	if _, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{Golden: golden, Snapshots: sim.NewSnapshots(p, bench.Stim, 8)}); err == nil {
		t.Fatal("runner accepted incomplete snapshots")
	}
	// So must a golden trace of other monitors, or of another stimulus
	// length: it would silently misclassify every lane.
	fewer, _ := sim.Run(sim.NewEngine(p), bench.Stim, sim.RunConfig{Monitors: bench.Monitors[1:]})
	if _, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{Golden: fewer, Snapshots: filled}); err == nil {
		t.Fatal("runner accepted a golden trace of another monitor list")
	}
	if _, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{Golden: sim.NewTrace(bench.Monitors, bench.Stim.Cycles()-1), Snapshots: filled}); err == nil {
		t.Fatal("runner accepted a golden trace shorter than the stimulus")
	}
}
