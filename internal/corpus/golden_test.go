package corpus_test

import (
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// TestKernelGoldenMatchesInterpreter holds the golden pass Materialize runs
// on the campaign's compiled kernel to sim.Run on the interpreter — trace,
// activity and every snapshot word — for every scenario at both scales, and
// for a netlist whose loopback sources a kernel holds in rows that are not
// 0 before cycle 0.
func TestKernelGoldenMatchesInterpreter(t *testing.T) {
	for _, scale := range []corpus.Scale{corpus.ScaleSmall, corpus.ScaleDefault} {
		for _, s := range corpus.List() {
			t.Run(s.ID()+"/"+scale.String(), func(t *testing.T) {
				t.Parallel()
				m, err := s.Materialize(scale, 1)
				if err != nil {
					t.Fatal(err)
				}
				assertGoldenMatches(t, m.Program, m.Bench.Stim, m.Bench.Monitors, -1, m.Golden, m.Activity, m.Snapshots)
			})
		}
	}
	t.Run("folded-loopback", func(t *testing.T) {
		p, stim, monitors := foldedLoopback(t)
		k, err := p.Kernel(stim.ObservedOutputs(monitors))
		if err != nil {
			t.Fatal(err)
		}
		// Every flip-flop is inverted in every lane at snapshot cycle 4, so
		// the run stays lane-uniform and a capture taken after the injection
		// hook restores a state the replay then inverts a second time.
		const flipAt = 4
		snaps := sim.NewSnapshots(p, stim, 2)
		e := sim.NewKernelEngine(k, 1)
		golden, act := sim.RunKernel(e, stim, sim.RunConfig{
			Monitors: monitors, CollectActivity: true, Snapshots: snaps,
			PreEval: flipAll(flipAt, p.NumFFs(), func(ff int) { e.FlipFF(ff, 0, ^uint64(0)) }),
		})
		assertGoldenMatches(t, p, stim, monitors, flipAt, golden, act, snaps)
	})
}

// flipAll is a PreEval hook inverting all n flip-flops through flip at cycle
// at; it does nothing when at < 0.
func flipAll(at, n int, flip func(ff int)) func(int) {
	return func(c int) {
		if c == at {
			for ff := range n {
				flip(ff)
			}
		}
	}
}

// assertGoldenMatches replays the stimulus on the interpreter, with every
// flip-flop inverted at cycle flipAt as the kernel run had it, and compares.
// Snapshots are compared word by word through RestoreKernel, and each is
// then replayed one cadence forward on the kernel: it must reach the next
// restore point without diverging and record the golden rows on the way,
// which holds a capture to the top of its cycle on both engines at once.
func assertGoldenMatches(t *testing.T, p *sim.Program, stim *sim.Stimulus, monitors []int, flipAt int,
	golden *sim.Trace, act *sim.Activity, snaps *sim.Snapshots) {
	t.Helper()
	wantSnaps := sim.NewSnapshots(p, stim, snaps.SnapCycle(1))
	interp := sim.NewEngine(p)
	want, wantAct := sim.Run(interp, stim, sim.RunConfig{
		Monitors: monitors, CollectActivity: true, Snapshots: wantSnaps,
		PreEval: flipAll(flipAt, p.NumFFs(), func(ff int) { interp.FlipFF(ff, ^uint64(0)) }),
	})
	if !golden.Equal(want) {
		t.Error("kernel golden trace differs from the interpreter's")
	}
	if act.Cycles != wantAct.Cycles || !slices.Equal(act.Ones, wantAct.Ones) || !slices.Equal(act.Toggles, wantAct.Toggles) {
		t.Error("kernel activity differs from the interpreter's")
	}
	if err := snaps.Matches(p, stim); err != nil {
		t.Fatal(err)
	}

	k, err := p.Kernel(stim.ObservedOutputs(monitors))
	if err != nil {
		t.Fatal(err)
	}
	got, ref := sim.NewKernelEngine(k, 1), sim.NewKernelEngine(k, 1)
	n := len(stim.Loopbacks())
	gotLb, refLb := make([]uint64, n), make([]uint64, n)
	replayed := sim.NewTrace(monitors, stim.Cycles())
	for idx := 0; snaps.SnapCycle(idx) < stim.Cycles(); idx++ {
		snaps.RestoreKernel(got, idx, gotLb)
		wantSnaps.RestoreKernel(ref, idx, refLb)
		if !slices.Equal(gotLb, refLb) {
			t.Errorf("snapshot %d: loopback words %x, interpreter %x", idx, gotLb, refLb)
		}
		for ff := range p.NumFFs() {
			if got.FFWord(ff, 0) != ref.FFWord(ff, 0) {
				t.Errorf("snapshot %d: flip-flop %d differs from the interpreter's", idx, ff)
				break
			}
		}
		sim.RunWindowWide(got, stim, snaps, snaps.SnapCycle(idx), sim.WideWindowConfig{
			Monitors: monitors,
			Traces:   []*sim.Trace{replayed},
			PreEval:  flipAll(flipAt, p.NumFFs(), func(ff int) { got.FlipFF(ff, 0, ^uint64(0)) }),
			OnSnapshot: func(c int, diverged []uint64) bool {
				if diverged[0] != 0 {
					t.Errorf("replay from snapshot %d diverges from snapshot %d", idx, idx+1)
				}
				return true
			},
		})
	}
	if !replayed.Equal(want) {
		t.Error("replaying each snapshot one cadence forward does not record the golden trace")
	}
}

// foldedLoopback builds a netlist with two loopback sources that read 0 on
// the interpreter before cycle 0 but not in their kernel rows: an output
// tied high, which folds to the constant-1 row, and a buffered flip-flop
// initialised to 1, whose buffer aliases the Q row. The fed-back inputs
// reach a monitored gate and two monitored flip-flops.
func foldedLoopback(t *testing.T) (*sim.Program, *sim.Stimulus, []int) {
	t.Helper()
	b := netlist.NewBuilder("folded")
	a := b.Input("a")
	fb1, fb2 := b.Input("fb1"), b.Input("fb2")
	b.Output("one", b.Const1())
	hi := b.Not(b.DFF("hi", a, true))
	b.Output("hi", hi)
	b.Output("seen", b.Or(fb1, fb2))
	b.Output("r1", b.DFF("r1", fb1, false))
	b.Output("r2", b.DFF("r2", b.Xor(fb2, a), false))
	nl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// The builder makes no BUF cells: the inverter on "hi" becomes one.
	if nl.Cells[nl.Nets[hi].Driver].Type, err = netlist.StdLib().Lookup("BUF_X1"); err != nil {
		t.Fatal(err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	port := func(name string) int {
		i, err := p.OutputIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	stim := sim.NewStimulus(9)
	set := stim.DrivePort(0)
	for c, v := range []bool{false, false, true, true, false, true, false, false, true} {
		set(c, v)
	}
	stim.AddLoopback(1, port("one"))
	stim.AddLoopback(2, port("hi"))
	return p, stim, []int{port("seen"), port("r1"), port("r2")}
}
