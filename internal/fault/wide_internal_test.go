package fault

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"repro/internal/circuit"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

var wideFixture struct {
	once  sync.Once
	p     *sim.Program
	bench *circuit.MACBench
	err   error
}

// wideMAC is this package-internal suite's copy of the small MAC fixture.
func wideMAC(t *testing.T) (*sim.Program, *circuit.MACBench) {
	t.Helper()
	f := &wideFixture
	f.once.Do(func() { f.p, f.bench, f.err = buildWideMAC() })
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.p, f.bench
}

func buildWideMAC() (*sim.Program, *circuit.MACBench, error) {
	nl, err := circuit.NewMAC10GE(circuit.MACConfig{FIFODepth: 16, StatWidth: 16})
	if err != nil {
		return nil, nil, err
	}
	if err := circuit.Synthesize(nl); err != nil {
		return nil, nil, err
	}
	p, err := sim.Compile(nl)
	if err != nil {
		return nil, nil, err
	}
	bench, err := circuit.BuildMACBench(p, circuit.MACBenchConfig{
		Packets: 4, MinPayload: 4, MaxPayload: 6, Gap: 10,
		DrainCycles: 40, Seed: 99, FIFODepth: 16,
	})
	return p, bench, err
}

// planned returns the runner's prepared plan for jobs, ready to simulate.
func planned(t *testing.T, r *Runner, jobs []Job) *Plan {
	t.Helper()
	pl, err := r.Prepare(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.ready(); err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestRunBatchWideSteadyStateAllocs pins the batch path's per-batch
// allocations: once a worker's state is warm, a wide batch allocates
// nothing in the window loop or the runner — no loopback or divergence
// buffers, no hook closures, no straggler list — only the classifier's one
// stream per group.
func TestRunBatchWideSteadyStateAllocs(t *testing.T) {
	p, bench := wideMAC(t)
	r, err := NewGoldenRunner(p, bench.Stim, bench.Monitors, &ExactClassifier{}, RunnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cp := planned(t, r, NewModelPlan(Model{}, p.NumFFs(), 2, bench.ActiveCycles, 3))
	const groups = sim.DefaultKernelWords
	if cp.sh.chunkBatches(0) < groups {
		t.Fatalf("chunk 0 has %d batches, need %d", cp.sh.chunkBatches(0), groups)
	}
	ws := newWideWorkerState(r, cp)
	masks := make([]uint64, groups)
	pos := make([]int, groups*sim.Lanes)
	for i := range pos {
		pos[i] = i
	}
	repacked := 0
	batch := func() {
		ws.next = ws.next[:0]
		r.runBatchWide(ws, cp, 0, pos, false, masks)
		repacked = len(ws.next)
	}
	batch() // warm the engine's window scratch and the straggler list
	if repacked == 0 {
		t.Fatal("the non-final batch was not cut: the repacking path is not under test")
	}
	if got := testing.AllocsPerRun(10, batch); got > groups {
		t.Fatalf("steady-state wide batch allocates %v times, want at most %d (one stream per group)", got, groups)
	}
}

// chunkMasks runs every chunk of the plan through the runner's pool and
// returns the masks in scheduled-position order. Chunks are whole 64-lane
// groups, so the concatenation does not depend on the chunk size.
func chunkMasks(t *testing.T, r *Runner, jobs []Job) []uint64 {
	t.Helper()
	pl := planned(t, r, jobs)
	all := make([]int, pl.NumChunks())
	for ci := range all {
		all[ci] = ci
	}
	done, err := pl.RunChunks(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	var masks []uint64
	for _, ci := range all {
		masks = append(masks, done[ci]...)
	}
	return masks
}

// wholeWindows runs every wide batch of the plan's own packing to
// completion — no cut, no second round — and returns the cycles that takes.
func wholeWindows(t *testing.T, r *Runner, jobs []Job) int64 {
	t.Helper()
	cp := planned(t, r, jobs)
	ws := newWideWorkerState(r, cp)
	masks := make([]uint64, cp.sh.numBatches())
	wide := ws.e.Words() * sim.Lanes
	var cycles int64
	for ci := 0; ci < cp.sh.numChunks; ci++ {
		lo, hi := cp.sh.chunkRange(ci)
		for blo := lo; blo < hi; blo += wide {
			batch := make([]int, 0, wide)
			for pos := blo; pos < min(blo+wide, hi); pos++ {
				batch = append(batch, pos)
			}
			cycles += int64(r.runBatchWide(ws, cp, 0, batch, true, masks))
			if len(ws.next) != 0 {
				t.Fatalf("final batch at %d left %d lanes undecided", blo, len(ws.next))
			}
		}
	}
	return cycles
}

// postHoc wraps a classifier's stream so that it never confirms a lane:
// every verdict comes from the stream's Verdict when the window stops, and a
// batch decides its lanes by settling alone.
type postHoc struct{ Classifier }

func (p postHoc) StartStream(golden *sim.Trace, used uint64, from int) Stream {
	return neverConfirms{p.Classifier.StartStream(golden, used, from)}
}

type neverConfirms struct{ Stream }

func (s neverConfirms) Observe(c int, golden, faulty []uint64) uint64 {
	s.Stream.Observe(c, golden, faulty)
	return 0
}

// TestRepackedChunksMatchReference pins the repacking rounds against the
// reference, which replays every 64-lane group's whole stimulus: per fault
// model and per kind of classifier — the MAC's stream, the exact stream,
// and a postHoc wrapper so that nothing is ever confirmed mid-run — chunks
// that take one round (a single wide batch), two and
// three must give the reference's masks bit for bit, and the multi-round
// ones must really have cut batches and re-injected lanes — under SEU in
// fewer cycles than the whole windows of the same packing.
func TestRepackedChunksMatchReference(t *testing.T) {
	p, bench := wideMAC(t)
	classifiers := []struct {
		name string
		make func() Classifier
	}{
		{"mac-stream", func() Classifier { return NewMACClassifier(bench, true) }},
		{"exact-stream", func() Classifier { return &ExactClassifier{} }},
		{"post-hoc", func() Classifier { return postHoc{NewMACClassifier(bench, true)} }},
	}
	for _, spec := range []string{"seu", "mbu:3", "stuck0:8", "stuck1:4@0.25-0.75", "set"} {
		model, err := ParseModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Enough jobs for a 4096-job chunk whose stragglers overflow one batch.
		targets := model.NumTargets(p)
		jobs := NewModelPlan(model, targets, (5000+targets-1)/targets, bench.ActiveCycles, 41)
		for _, c := range classifiers {
			t.Run(spec+"/"+c.name, func(t *testing.T) {
				run := func(chunkJobs int) *Runner {
					r, err := NewGoldenRunner(p, bench.Stim, bench.Monitors, c.make(), RunnerConfig{
						Model: model, ChunkJobs: chunkJobs, Workers: 2, Metrics: obs.NewRegistry(),
					})
					if err != nil {
						t.Fatal(err)
					}
					return r
				}
				want, err := referenceMasks(run(0), jobs)
				if err != nil {
					t.Fatal(err)
				}
				for _, chunkJobs := range []int{64, 1024, 4096} {
					r := run(chunkJobs)
					if got := chunkMasks(t, r, jobs); !slices.Equal(got, want) {
						t.Fatalf("ChunkJobs %d: masks differ from the reference's", chunkJobs)
					}
					repacked, cycles := r.metrics.repackedLanes.Value(), int64(r.metrics.simCycles.Value())
					switch {
					case chunkJobs == 64:
						if repacked != 0 {
							t.Fatalf("ChunkJobs 64: single-batch chunks repacked %v lanes", repacked)
						}
					case repacked == 0 && c.name != "post-hoc":
						// Without a stream nothing confirms the failing lanes, and
						// where over a quarter fail no batch gets under the cut.
						t.Fatalf("ChunkJobs %d: nothing repacked", chunkJobs)
					case spec == "seu":
						// Only pinned for the reference model: this stimulus is 133
						// cycles long, and under the multi-event models a re-run
						// costs about what the cut tail saves.
						if whole := wholeWindows(t, r, jobs); cycles >= whole {
							t.Fatalf("ChunkJobs %d: %d cycles simulated with %v lanes repacked, %d by whole windows",
								chunkJobs, cycles, repacked, whole)
						}
					}
				}
			})
		}
	}
}

// TestRepackingTakesThreeRounds checks the fixture above: round one of a
// 4096-job chunk leaves more stragglers than one wide batch holds, so the
// chunk's second round is cut again and a third finishes it.
func TestRepackingTakesThreeRounds(t *testing.T) {
	p, bench := wideMAC(t)
	r, err := NewGoldenRunner(p, bench.Stim, bench.Monitors, NewMACClassifier(bench, true), RunnerConfig{ChunkJobs: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cp := planned(t, r, NewModelPlan(Model{}, p.NumFFs(), (5000+p.NumFFs()-1)/p.NumFFs(), bench.ActiveCycles, 41))
	ws := newWideWorkerState(r, cp)
	wide := ws.e.Words() * sim.Lanes
	masks := make([]uint64, cp.sh.chunkBatches(0))
	for blo := 0; blo < 4096; blo += wide {
		batch := make([]int, wide)
		for i := range batch {
			batch[i] = blo + i
		}
		r.runBatchWide(ws, cp, 0, batch, false, masks)
	}
	next := ws.next
	if len(next) <= wide || len(next) > 4096/repackFraction {
		t.Fatalf("round one left %d stragglers, want more than one batch (%d) and at most a quarter", len(next), wide)
	}
	if !slices.IsSorted(next) {
		t.Fatal("stragglers are not in scheduled order")
	}
}

// TestRepackingTerminates is the worst case for the cut: flip-flops that
// hold their value never settle, and a classifier whose stream never
// confirms (postHoc) leaves them undecided, so no batch ever gets under the
// cut. Every batch must then run
// to the end of the stimulus and decide all its lanes there — one round,
// nothing repacked — instead of passing the whole list on for ever.
func TestRepackingTerminates(t *testing.T) {
	b := netlist.NewBuilder("hold")
	const regs = 8
	for i := 0; i < regs; i++ {
		q, set := b.DFFDecl("r"+string(rune('0'+i)), i%2 == 0)
		set(q)
		b.Output("q"+string(rune('0'+i)), q)
	}
	nl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 100
	stim := sim.NewStimulus(cycles)
	monitors := make([]int, regs)
	for i := range monitors {
		monitors[i] = i
	}
	jobs := NewModelPlan(Model{}, regs, 80, cycles, 7) // 640 jobs: one chunk, three wide batches
	r, err := NewGoldenRunner(p, stim, monitors, postHoc{&ExactClassifier{}}, RunnerConfig{
		ChunkJobs: 1024, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceMasks(r, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got := chunkMasks(t, r, jobs)
	if !slices.Equal(got, want) {
		t.Fatal("masks differ from the reference's")
	}
	for _, m := range got[:len(got)-1] {
		if m != ^uint64(0) {
			t.Fatalf("mask %016x: every held flip must fail", m)
		}
	}
	if n := r.metrics.repackedLanes.Value(); n != 0 {
		t.Fatalf("%v lanes repacked, want none", n)
	}
	batches := (len(jobs) + sim.Lanes - 1) / sim.Lanes
	if n := r.metrics.earlyExits.With(exitWindowEnd).Value(); n != float64(batches) {
		t.Fatalf("%v windows ran to the stimulus end, want all %d, once each", n, batches)
	}
}

// TestKernelSharedAndCollectable pins where compiled kernels live: on
// their program. Runners over one program share one compilation, and once
// the program and its runners are dropped the kernel goes with them — a
// long-lived process (hardening verification, a fabric worker) must not
// accumulate one per study. The kernel points back at its program, and a
// finalizer never runs on an object of a cycle, so the test watches the
// kernel through a weak pointer instead.
func TestKernelSharedAndCollectable(t *testing.T) {
	kern := func() weak.Pointer[sim.Kernel] {
		p, bench, err := buildWideMAC()
		if err != nil {
			t.Fatal(err)
		}
		var kernels [2]*sim.Kernel
		for i := range kernels {
			r, err := NewGoldenRunner(p, bench.Stim, bench.Monitors, &ExactClassifier{}, RunnerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.RunContext(context.Background(), NewModelPlan(Model{}, p.NumFFs(), 1, bench.ActiveCycles, 5)); err != nil {
				t.Fatal(err)
			}
			if kernels[i], err = r.kernel(); err != nil {
				t.Fatal(err)
			}
		}
		if kernels[0] != kernels[1] {
			t.Fatal("two runners on one program compiled two kernels")
		}
		return weak.Make(kernels[0])
	}()
	for i := 0; i < 3 && kern.Value() != nil; i++ {
		runtime.GC()
	}
	if kern.Value() != nil {
		t.Fatal("the kernel of a dropped program is still reachable")
	}
}

// runRoundsChecked is runChunkWide over every chunk of the plan with the
// worker-trace invariant checked after each batch: whatever the batch
// recorded and glitched, every worker trace is the golden trace again when
// it returns. It returns the masks in scheduled-position order.
func runRoundsChecked(t *testing.T, r *Runner, cp *Plan) []uint64 {
	t.Helper()
	ws := newWideWorkerState(r, cp)
	wide := ws.e.Words() * sim.Lanes
	var all []uint64
	for ci := 0; ci < cp.sh.numChunks; ci++ {
		lo, hi := cp.sh.chunkRange(ci)
		masks := make([]uint64, cp.sh.chunkBatches(ci))
		var work []int
		for pos := lo; pos < hi; pos++ {
			work = append(work, pos)
		}
		for len(work) > 0 {
			ws.next = nil
			for i := 0; i < len(work); i += wide {
				r.runBatchWide(ws, cp, lo, work[i:min(i+wide, len(work))], len(work) <= wide, masks)
				for g, tr := range ws.traces {
					if !tr.Equal(cp.golden) {
						t.Fatalf("chunk %d: worker trace %d differs from golden after a batch", ci, g)
					}
				}
			}
			work = ws.next
		}
		all = append(all, masks...)
	}
	return all
}

// TestWorkerTracesReturnToGolden pins the invariant the window-bounded
// bookkeeping rests on, across the fault-model matrix and both kinds of
// classifier: a batch dirties only the rows of its window, glitches
// included, and restores exactly those, so between batches every worker
// trace equals golden — and the streams' verdicts over those rows alone
// give the reference's masks.
func TestWorkerTracesReturnToGolden(t *testing.T) {
	p, bench := wideMAC(t)
	for _, spec := range []string{"seu", "mbu:3", "stuck0:8", "stuck1:4@0.25-0.75", "set"} {
		model, err := ParseModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		targets := model.NumTargets(p)
		jobs := NewModelPlan(model, targets, (1500+targets-1)/targets, bench.ActiveCycles, 17)
		for name, cls := range map[string]Classifier{
			"mac":   NewMACClassifier(bench, true),
			"exact": &ExactClassifier{CheckFrom: 20},
		} {
			t.Run(spec+"/"+name, func(t *testing.T) {
				r, err := NewGoldenRunner(p, bench.Stim, bench.Monitors, cls, RunnerConfig{Model: model, ChunkJobs: 1024})
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceMasks(r, jobs)
				if err != nil {
					t.Fatal(err)
				}
				if got := runRoundsChecked(t, r, planned(t, r, jobs)); !slices.Equal(got, want) {
					t.Fatal("masks differ from the reference's")
				}
			})
		}
	}
}

// setRunner returns a SET-model runner over the small MAC under cls, with
// the effect table of one pulse per combinational target at each of the
// given cycles.
func setRunner(t *testing.T, cls Classifier, cycles ...int) (*Runner, []Job, map[int64]setEffect) {
	t.Helper()
	p, bench := wideMAC(t)
	model, err := ParseModel("set")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewGoldenRunner(p, bench.Stim, bench.Monitors, cls, RunnerConfig{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, c := range cycles {
		for target := 0; target < model.NumTargets(p); target++ {
			jobs = append(jobs, Job{FF: target, Cycle: c})
		}
	}
	return r, jobs, r.setEffects(jobs)
}

// startsAt records the cycle every stream of a classifier starts at: the
// first row of each window the runner simulates.
type startsAt struct {
	Classifier
	from *[]int
}

func (s startsAt) StartStream(golden *sim.Trace, used uint64, from int) Stream {
	*s.from = append(*s.from, from)
	return s.Classifier.StartStream(golden, used, from)
}

// runOneBatch runs jobs as a single final wide batch on a fresh worker and
// returns the worker, the window length and the masks.
func runOneBatch(t *testing.T, r *Runner, jobs []Job) (*wideWorkerState, int, []uint64) {
	t.Helper()
	if len(jobs) == 0 || len(jobs) > lanesPerBatch {
		t.Fatalf("%d jobs do not make one wide batch", len(jobs))
	}
	cp := planned(t, r, jobs)
	ws := newWideWorkerState(r, cp)
	batch := make([]int, len(jobs))
	for i := range batch {
		batch[i] = i
	}
	masks := make([]uint64, cp.sh.chunkBatches(0))
	n := r.runBatchWide(ws, cp, 0, batch, true, masks)
	return ws, n, masks
}

// TestSETGlitchRowBeforeWindow is the window's SET corner: a pulse at cycle
// c is observed at row c but its capture flips land at c+1, so when c+1 is
// snapshot-aligned the window must start at the snapshot before it, or the
// streams never see the glitch row. That row must be classified (the exact
// criterion fails the lane on the glitch alone) and restored.
func TestSETGlitchRowBeforeWindow(t *testing.T) {
	_, bench := wideMAC(t)
	pulse := bench.ActiveCycles/2/sim.DefaultSnapshotEvery*sim.DefaultSnapshotEvery - 1
	var starts []int
	r, all, fx := setRunner(t, startsAt{&ExactClassifier{}, &starts}, pulse)
	var jobs []Job
	for _, j := range all {
		if eff := fx[setKey(j.FF, j.Cycle)]; len(eff.ffs) > 0 && len(eff.mons) > 0 && len(jobs) < sim.Lanes {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) == 0 {
		t.Fatalf("no pulse at cycle %d both glitches a monitor and is latched", pulse)
	}
	want, err := referenceMasks(r, jobs)
	if err != nil {
		t.Fatal(err)
	}
	starts = nil // the reference's streams
	ws, n, got := runOneBatch(t, r, jobs)
	if !slices.Equal(got, want) {
		t.Fatalf("masks %x, reference %x", got, want)
	}
	if len(starts) != 1 || starts[0] > pulse || starts[0]+n <= pulse {
		t.Fatalf("streams start at %v and run %d cycles: the glitch row %d lies outside", starts, n, pulse)
	}
	if want[0] != uint64(1)<<uint(len(jobs))-1 {
		t.Fatalf("reference masks %x: every glitched lane fails the exact criterion", want)
	}
	if !ws.traces[0].Equal(ws.golden) {
		t.Fatal("the glitch row was not restored")
	}
}

// TestEventlessGlitchBatch runs a batch made only of SET pulses nothing
// latches — no flip at all — at two cycles far apart. A lane whose last event
// is its glitch stays pending until the glitch row has been observed, so the
// window runs through the last glitch row, however early the state of every
// lane re-converges, and every lane's glitch is classified and restored.
func TestEventlessGlitchBatch(t *testing.T) {
	_, bench := wideMAC(t)
	// The last cycle has no following cycle to latch into at all.
	last := bench.Stim.Cycles() - 1
	var starts []int
	r, all, fx := setRunner(t, startsAt{&ExactClassifier{}, &starts}, bench.ActiveCycles/3, last)
	var jobs []Job
	perCycle := map[int]int{}
	for _, j := range all {
		eff := fx[setKey(j.FF, j.Cycle)]
		if len(eff.mons) > 0 && (len(eff.ffs) == 0 || j.Cycle == last) && perCycle[j.Cycle] < lanesPerBatch/2 {
			jobs = append(jobs, j)
			perCycle[j.Cycle]++
		}
	}
	if len(perCycle) != 2 || len(jobs) <= sim.Lanes {
		t.Fatalf("%d glitch-only pulses at %d cycles: want more than one group over both", len(jobs), len(perCycle))
	}
	want, err := referenceMasks(r, jobs)
	if err != nil {
		t.Fatal(err)
	}
	starts = nil // the reference's streams
	ws, n, got := runOneBatch(t, r, jobs)
	if len(ws.flips) != 0 {
		t.Fatalf("the batch has %d flips, want none", len(ws.flips))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("masks %x, reference %x", got, want)
	}
	if len(starts) != len(got) || starts[0] > bench.ActiveCycles/3 || starts[0]+n != last+1 {
		t.Fatalf("streams start at %v and run %d cycles: want one per group through the glitch rows %d and %d",
			starts, n, bench.ActiveCycles/3, last)
	}
	for g, m := range got {
		if m == 0 {
			t.Fatalf("group %d: no glitched lane failed the exact criterion", g)
		}
		if !ws.traces[g].Equal(ws.golden) {
			t.Fatalf("group %d: glitch rows were not restored", g)
		}
	}
}

// skipsRow hands its streams every row the runner observes but one, the
// first that differs from golden: a runner that misses a row of its window.
type skipsRow struct{ Classifier }

func (s skipsRow) StartStream(golden *sim.Trace, used uint64, from int) Stream {
	return &skippingStream{Stream: s.Classifier.StartStream(golden, used, from)}
}

type skippingStream struct {
	Stream
	skipped   bool
	confirmed uint64
}

func (s *skippingStream) Observe(c int, golden, faulty []uint64) uint64 {
	if !s.skipped && !slices.Equal(golden, faulty) {
		s.skipped = true
		return s.confirmed
	}
	s.confirmed = s.Stream.Observe(c, golden, faulty)
	return s.confirmed
}

// TestNarrowedRangeBreaksEquivalence is the negative control of the window
// contract: the equivalence suites must notice a stream that misses one row
// of its window. If this test fails, the suites would pass a Runner whose
// streams do not see every row it dirtied.
func TestNarrowedRangeBreaksEquivalence(t *testing.T) {
	p, bench := wideMAC(t)
	jobs := NewModelPlan(Model{}, p.NumFFs(), 2, bench.ActiveCycles, 41)
	run := func(cls Classifier) *Runner {
		r, err := NewGoldenRunner(p, bench.Stim, bench.Monitors, cls, RunnerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want, err := referenceMasks(run(&ExactClassifier{}), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := chunkMasks(t, run(&ExactClassifier{}), jobs); !slices.Equal(got, want) {
		t.Fatal("the Runner already differs from the reference")
	}
	if got := chunkMasks(t, run(skipsRow{&ExactClassifier{}}), jobs); slices.Equal(got, want) {
		t.Fatal("streams that skip a row of every window still matched the reference")
	}
}

// TestFlipSorterMatchesInsertionSort pins the counting sort to the
// insertion sort it replaced, element for element — ties included, which is
// what keeps a lane's events in expandJob's order — on the events of random
// batches under every kind of model.
func TestFlipSorterMatchesInsertionSort(t *testing.T) {
	p, bench := wideMAC(t)
	rng := rand.New(rand.NewSource(5))
	for _, spec := range []string{"seu", "mbu:3", "stuck0:8", "set"} {
		model, err := ParseModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewGoldenRunner(p, bench.Stim, bench.Monitors, &ExactClassifier{}, RunnerConfig{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		jobs := NewModelPlan(model, model.NumTargets(p), 2, bench.ActiveCycles, 23)
		fx := r.setEffects(jobs)
		var sorter flipSorter
		events := 0
		for trial := 0; trial < 20; trial++ {
			var flips []flipOp
			for lane := 0; lane < 1+rng.Intn(lanesPerBatch); lane++ {
				n := len(flips)
				flips = r.expandJob(flips, fx, jobs[rng.Intn(len(jobs))], 1<<uint(lane%sim.Lanes))
				for i := n; i < len(flips); i++ {
					flips[i].word = lane / sim.Lanes
				}
			}
			want := slices.Clone(flips)
			insertionSortFlips(want)
			if got := sorter.sort(flips); !slices.Equal(got, want) {
				t.Fatalf("%s trial %d: %d events ordered differently from the insertion sort", spec, trial, len(want))
			}
			events += len(want)
		}
		if events == 0 {
			t.Fatalf("%s: no events sorted", spec)
		}
	}
}

// TestMACStreamStartsAtGoldenDecoderState pins the per-cycle decoder table
// to what it replaced: a stream started at cycle from holds the state the
// golden frame decoder reaches by replaying rows [0, from), for every from.
func TestMACStreamStartsAtGoldenDecoderState(t *testing.T) {
	p, bench := wideMAC(t)
	cls := NewMACClassifier(bench, true)
	r, err := NewGoldenRunner(p, bench.Stim, bench.Monitors, cls, RunnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	golden := r.cfg.Golden
	var replay frameDec
	for from := 0; from <= golden.Cycles(); from++ {
		if got := cls.StartStream(golden, ^uint64(0), from).(*macStream).g; got != replay {
			t.Fatalf("stream from cycle %d starts at frame %d byte %d, replay reaches frame %d byte %d",
				from, got.k, got.pos, replay.k, replay.pos)
		}
		if from < golden.Cycles() {
			replay.advance(golden.Bit(from, bench.MonRxValid, 0), golden.Bit(from, bench.MonRxEOP, 0))
		}
	}
	if replay.k == 0 {
		t.Fatal("the golden run received no frame")
	}
}

// TestPlanGeometry pins a prepared plan's exported geometry against the
// internal splitting (whole 64-lane batches, short last chunk).
func TestPlanGeometry(t *testing.T) {
	p, bench := wideMAC(t)
	r, err := NewGoldenRunner(p, bench.Stim, bench.Monitors, &ExactClassifier{}, RunnerConfig{ChunkJobs: 100})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := r.Prepare(NewModelPlan(Model{}, 300, 1, bench.ActiveCycles, 3))
	if err != nil {
		t.Fatal(err)
	}
	if pl.ChunkJobs() != 128 { // 100 rounded up to 2 batches
		t.Fatalf("chunk jobs %d, want 128", pl.ChunkJobs())
	}
	if pl.NumChunks() != 3 || pl.TotalJobs() != 300 {
		t.Fatalf("geometry %d chunks / %d jobs", pl.NumChunks(), pl.TotalJobs())
	}
	if lo, hi := pl.sh.chunkRange(2); lo != 256 || hi != 300 {
		t.Fatalf("last chunk [%d,%d)", lo, hi)
	}
	if pl.sh.chunkBatches(2) != 1 {
		t.Fatalf("last chunk batches %d", pl.sh.chunkBatches(2))
	}
	if _, err := newSharding(-1, 0); err == nil {
		t.Fatal("negative plan accepted")
	}
}
