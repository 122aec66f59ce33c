package fault

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// TestRunBatchWideSteadyStateAllocs pins the kernel path's per-batch
// allocations: once a worker's state is warm, a wide batch allocates
// nothing in the window loop or the runner — no loopback or divergence
// buffers, no hook closures — only the classifier's one stream per group.
func TestRunBatchWideSteadyStateAllocs(t *testing.T) {
	nl, err := circuit.NewMAC10GE(circuit.MACConfig{FIFODepth: 16, StatWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		t.Fatal(err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := circuit.BuildMACBench(p, circuit.MACBenchConfig{
		Packets: 4, MinPayload: 4, MaxPayload: 6, Gap: 10,
		DrainCycles: 40, Seed: 99, FIFODepth: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, bench.Stim, bench.Monitors, &ExactClassifier{}, RunnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := NewPlan(p.NumFFs(), 2, bench.ActiveCycles, 3)
	cp, err := r.planChunks(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if cp.order, err = scheduleOrder(jobs, r.schedule); err != nil {
		t.Fatal(err)
	}
	const groups = sim.DefaultKernelWords
	if cp.sh.chunkBatches(0) < groups {
		t.Fatalf("chunk 0 has %d batches, need %d", cp.sh.chunkBatches(0), groups)
	}
	ws := newWideWorkerState(r, cp)
	masks := make([]uint64, 0, groups)
	batch := func() { r.runBatchWide(ws, cp, 0, 0, groups, masks) }
	batch() // warm the engine's window scratch
	if got := testing.AllocsPerRun(10, batch); got > groups {
		t.Fatalf("steady-state wide batch allocates %v times, want at most %d (one stream per group)", got, groups)
	}
}
