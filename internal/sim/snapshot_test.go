package sim_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// snapshotFixture builds a small MAC bench — loopback rules included, which
// is exactly the state a snapshot must capture beyond flip-flop bits.
func snapshotFixture(t *testing.T) (*sim.Program, *circuit.MACBench) {
	t.Helper()
	nl, err := circuit.NewMAC10GE(circuit.MACConfig{FIFODepth: 16, StatWidth: 16, TargetFFs: 0})
	if err != nil {
		t.Fatalf("NewMAC10GE: %v", err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	bench, err := circuit.BuildMACBench(p, circuit.MACBenchConfig{
		Packets: 3, MinPayload: 4, MaxPayload: 6, Gap: 8,
		DrainCycles: 20, Seed: 5, FIFODepth: 16,
	})
	if err != nil {
		t.Fatalf("BuildMACBench: %v", err)
	}
	return p, bench
}

func goldenWithSnapshots(t *testing.T, p *sim.Program, bench *circuit.MACBench, every int) (*sim.Trace, *sim.Snapshots) {
	t.Helper()
	snaps := sim.NewSnapshots(p, bench.Stim, every)
	e := sim.NewEngine(p)
	golden, _ := sim.Run(e, bench.Stim, sim.RunConfig{Monitors: bench.Monitors, Snapshots: snaps})
	if !snaps.Complete() {
		t.Fatal("snapshots incomplete after a full golden run")
	}
	return golden, snaps
}

// windowEngine returns a full-width kernel engine keeping every output port
// and one recording trace per batch word.
func windowEngine(t *testing.T, p *sim.Program, bench *circuit.MACBench) (*sim.KernelEngine, []*sim.Trace) {
	t.Helper()
	k, err := p.Kernel(nil)
	if err != nil {
		t.Fatalf("Kernel: %v", err)
	}
	traces := make([]*sim.Trace, sim.DefaultKernelWords)
	for w := range traces {
		traces[w] = sim.NewTrace(bench.Monitors, bench.Stim.Cycles())
	}
	return sim.NewKernelEngine(k, len(traces)), traces
}

// A fault-free window run restored from any snapshot must reproduce the
// golden trace exactly, in every batch word, and never report divergence —
// the soundness core of golden fast-forward.
func TestRunWindowReproducesGolden(t *testing.T) {
	p, bench := snapshotFixture(t)
	golden, snaps := goldenWithSnapshots(t, p, bench, 8)
	e, traces := windowEngine(t, p, bench)
	cycles := bench.Stim.Cycles()
	for _, start := range []int{0, 1, 7, 8, 9, cycles / 2, cycles - 1} {
		for _, trace := range traces {
			trace.CopyCycles(golden, 0, snaps.SnapCycle(snaps.IndexAtOrBefore(start)))
		}
		stop := sim.RunWindowWide(e, bench.Stim, snaps, start, sim.WideWindowConfig{
			Monitors: bench.Monitors,
			Traces:   traces,
			OnSnapshot: func(c int, diverged []uint64) bool {
				for w, d := range diverged {
					if d != 0 {
						t.Fatalf("start %d: spurious divergence %x in word %d at cycle %d", start, d, w, c)
					}
				}
				return false
			},
		})
		if stop != cycles {
			t.Fatalf("start %d: stopped at %d without a stop hook", start, stop)
		}
		for w, trace := range traces {
			if !trace.Equal(golden) {
				t.Fatalf("start %d: word %d's fast-forwarded trace differs from golden", start, w)
			}
		}
	}
}

func TestRunWindowEarlyStop(t *testing.T) {
	p, bench := snapshotFixture(t)
	golden, snaps := goldenWithSnapshots(t, p, bench, 8)
	e, traces := windowEngine(t, p, bench)
	cycles := bench.Stim.Cycles()

	// OnCycle stop: the stopping cycle is recorded, so the first
	// unrecorded cycle is c+1.
	stop := sim.RunWindowWide(e, bench.Stim, snaps, 0, sim.WideWindowConfig{
		Monitors: bench.Monitors,
		Traces:   traces,
		OnCycle:  func(c int) bool { return c == 20 },
	})
	if stop != 21 {
		t.Fatalf("OnCycle stop at 20 returned %d, want 21", stop)
	}
	for w, trace := range traces {
		trace.CopyCycles(golden, stop, cycles)
		if !trace.Equal(golden) {
			t.Fatalf("word %d: stopped fault-free trace + golden suffix differs from golden", w)
		}
	}

	// OnSnapshot stop: the boundary cycle is not simulated.
	stop = sim.RunWindowWide(e, bench.Stim, snaps, 0, sim.WideWindowConfig{
		Monitors:   bench.Monitors,
		Traces:     traces,
		OnSnapshot: func(c int, diverged []uint64) bool { return c >= 24 },
	})
	if stop != 24 {
		t.Fatalf("OnSnapshot stop at 24 returned %d, want %d", stop, 24)
	}
}

// A flip in batch word w must show up as divergence in word w, and only
// there, at the next boundary, and restoring a snapshot must clear it — i.e.
// restores really do rewind lane state.
func TestRunWindowSeesDivergenceAndRestoreClearsIt(t *testing.T) {
	p, bench := snapshotFixture(t)
	_, snaps := goldenWithSnapshots(t, p, bench, 8)
	e, traces := windowEngine(t, p, bench)

	for word := range traces {
		var saw []uint64
		sim.RunWindowWide(e, bench.Stim, snaps, 0, sim.WideWindowConfig{
			Monitors: bench.Monitors,
			Traces:   traces,
			PreEval: func(c int) {
				if c == 2 {
					e.FlipFF(0, word, 1<<5)
				}
			},
			OnSnapshot: func(c int, diverged []uint64) bool {
				saw = append(saw[:0], diverged...)
				return c == 8
			},
		})
		if len(saw) != len(traces) {
			t.Fatalf("boundary reported %d divergence words, want %d", len(saw), len(traces))
		}
		for w, d := range saw {
			if w == word && d>>5&1 != 1 {
				t.Fatalf("flip on lane 5 of word %d not seen as divergence (mask %x)", word, d)
			}
			if w != word && d != 0 {
				t.Fatalf("flip in word %d diverged word %d (mask %x)", word, w, d)
			}
		}

		// The engine still carries the flipped state; a fresh fault-free
		// window from the same dirty engine must be golden again after
		// RestoreKernel.
		sim.RunWindowWide(e, bench.Stim, snaps, 0, sim.WideWindowConfig{
			Monitors: bench.Monitors,
			Traces:   traces,
			OnSnapshot: func(c int, diverged []uint64) bool {
				for w, d := range diverged {
					if d != 0 {
						t.Fatalf("restore did not clear word %d's previous batch state (%x at cycle %d)", w, d, c)
					}
				}
				return false
			},
		})
	}
}

func TestSnapshotsGeometry(t *testing.T) {
	p, bench := snapshotFixture(t)
	_, snaps := goldenWithSnapshots(t, p, bench, 8)
	if got := snaps.SnapCycle(1); got != 8 {
		t.Fatalf("SnapCycle(1) = %d", got)
	}
	if got := snaps.IndexAtOrBefore(0); got != 0 {
		t.Fatalf("IndexAtOrBefore(0) = %d", got)
	}
	if got := snaps.SnapCycle(snaps.IndexAtOrBefore(17)); got != 16 {
		t.Fatalf("snapshot before 17 restores to %d, want 16", got)
	}
	if err := snaps.Matches(p, bench.Stim); err != nil {
		t.Fatalf("Matches on own geometry: %v", err)
	}
	if snaps.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes not reported")
	}

	// A never-filled set must be rejected.
	empty := sim.NewSnapshots(p, bench.Stim, 8)
	if err := empty.Matches(p, bench.Stim); err == nil {
		t.Fatal("incomplete snapshot set accepted")
	}

	// Foreign geometry must be rejected.
	other := sim.NewStimulus(bench.Stim.Cycles() + 1)
	if err := snaps.Matches(p, other); err == nil {
		t.Fatal("mismatched stimulus accepted")
	}
}

func TestTraceRowAndCopyCycles(t *testing.T) {
	p, bench := snapshotFixture(t)
	golden, _ := goldenWithSnapshots(t, p, bench, 8)
	row := golden.Row(3)
	if len(row) != len(golden.Monitors) {
		t.Fatalf("row has %d words for %d monitors", len(row), len(golden.Monitors))
	}
	for m := range row {
		if row[m] != golden.Word(3, m) {
			t.Fatalf("Row(3)[%d] != Word(3,%d)", m, m)
		}
	}

	dst := sim.NewTrace(golden.Monitors, golden.Cycles())
	dst.CopyCycles(golden, 5, 9)
	for c := 5; c < 9; c++ {
		for m := range golden.Monitors {
			if dst.Word(c, m) != golden.Word(c, m) {
				t.Fatalf("copied word (%d,%d) differs", c, m)
			}
		}
	}
	// Rows outside [5,9) stay untouched (the fresh trace is all zero).
	if dst.Word(4, 0) != 0 || dst.Word(9, 0) != 0 {
		t.Fatal("CopyCycles touched rows outside the range")
	}
}
