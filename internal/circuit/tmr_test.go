package circuit_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// buildToggleChain builds a tiny DUT with observable state: a 3-stage shift
// chain clocked from an input, with the last stage both a primary output
// and fed back through an XOR so single flips propagate and persist.
func buildToggleChain(t *testing.T) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("tmrfix")
	in := b.Input("in")
	q2, setD2 := b.DFFDecl("s2", false)
	q0 := b.DFF("s0", b.Xor(in, q2), false)
	q1 := b.DFF("s1", q0, true)
	setD2(b.Xor(q1, q0))
	b.Output("out", q2)
	b.Output("mid", q1)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return nl
}

// runWithFlip simulates cycles steps, driving the input from stim bits,
// optionally flipping flip-flop ff at flipCycle, and returns the output
// port values observed each cycle (lane 0).
func runWithFlip(t *testing.T, nl *netlist.Netlist, cycles, ff, flipCycle int, flip bool) []uint64 {
	t.Helper()
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e := sim.NewEngine(p)
	e.Reset()
	var out []uint64
	for c := 0; c < cycles; c++ {
		e.SetInputBool(0, c%3 == 0)
		if flip && c == flipCycle {
			e.FlipFF(ff, 1)
		}
		e.Eval()
		var word uint64
		for o := 0; o < 2; o++ {
			word |= (e.Output(o) & 1) << uint(o)
		}
		out = append(out, word)
		e.Commit()
	}
	return out
}

func TestApplyTMRPreservesFaultFreeBehavior(t *testing.T) {
	base := buildToggleChain(t)
	hardened := buildToggleChain(t)
	if err := circuit.ApplyTMR(hardened, []int{0, 1, 2}); err != nil {
		t.Fatalf("ApplyTMR: %v", err)
	}
	if err := hardened.Validate(); err != nil {
		t.Fatalf("hardened netlist invalid: %v", err)
	}
	if base.Fingerprint() == hardened.Fingerprint() {
		t.Fatal("TMR rewrite must change the netlist fingerprint")
	}
	if got, want := len(hardened.FFs()), len(base.FFs())+6; got != want {
		t.Fatalf("hardened has %d FFs, want %d", got, want)
	}
	const cycles = 24
	golden := runWithFlip(t, base, cycles, 0, 0, false)
	goldenHard := runWithFlip(t, hardened, cycles, 0, 0, false)
	for c := range golden {
		if golden[c] != goldenHard[c] {
			t.Fatalf("fault-free outputs diverge at cycle %d: base %b, hardened %b", c, golden[c], goldenHard[c])
		}
	}
}

func TestApplyTMROutvotesSingleFlips(t *testing.T) {
	base := buildToggleChain(t)
	hardened := buildToggleChain(t)
	if err := circuit.ApplyTMR(hardened, []int{0, 1, 2}); err != nil {
		t.Fatalf("ApplyTMR: %v", err)
	}
	const cycles = 24
	golden := runWithFlip(t, base, cycles, 0, 0, false)

	// The unhardened design must actually be vulnerable, or the test below
	// proves nothing.
	vulnerable := false
	for ff := 0; ff < len(base.FFs()); ff++ {
		faulty := runWithFlip(t, base, cycles, ff, 5, true)
		for c := range golden {
			if faulty[c] != golden[c] {
				vulnerable = true
			}
		}
	}
	if !vulnerable {
		t.Fatal("baseline DUT tolerates every single flip; fixture is useless")
	}

	// Every flip-flop of the hardened design — originals and replicas —
	// must tolerate a single-cycle flip with bit-identical outputs.
	for ff := 0; ff < len(hardened.FFs()); ff++ {
		faulty := runWithFlip(t, hardened, cycles, ff, 5, true)
		for c := range golden {
			if faulty[c] != golden[c] {
				t.Fatalf("flip of hardened FF %d visible at cycle %d", ff, c)
			}
		}
	}
}

func TestApplyTMRPartialSelection(t *testing.T) {
	hardened := buildToggleChain(t)
	// Duplicate and unsorted indices are fine; only FF 1 is hardened.
	if err := circuit.ApplyTMR(hardened, []int{1, 1}); err != nil {
		t.Fatalf("ApplyTMR: %v", err)
	}
	if got, want := len(hardened.FFs()), 5; got != want {
		t.Fatalf("hardened has %d FFs, want %d", got, want)
	}
	base := buildToggleChain(t)
	const cycles = 24
	golden := runWithFlip(t, base, cycles, 0, 0, false)
	// FF 1 (and its replicas 3, 4) are immune; FF 0 must still be flippable.
	for _, ff := range []int{1, 3, 4} {
		faulty := runWithFlip(t, hardened, cycles, ff, 5, true)
		for c := range golden {
			if faulty[c] != golden[c] {
				t.Fatalf("flip of hardened FF %d visible at cycle %d", ff, c)
			}
		}
	}
	diverged := false
	faulty := runWithFlip(t, hardened, cycles, 0, 5, true)
	for c := range golden {
		if faulty[c] != golden[c] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("unhardened FF 0 should still be vulnerable after partial TMR")
	}
}

func TestApplyTMRRejectsBadIndices(t *testing.T) {
	nl := buildToggleChain(t)
	fp := nl.Fingerprint()
	if err := circuit.ApplyTMR(nl, []int{3}); err == nil {
		t.Fatal("out-of-range FF index accepted")
	}
	if err := circuit.ApplyTMR(nl, []int{-1}); err == nil {
		t.Fatal("negative FF index accepted")
	}
	if nl.Fingerprint() != fp {
		t.Fatal("failed ApplyTMR must leave the netlist untouched")
	}
}

func TestApplyTMRSurvivesSynthesis(t *testing.T) {
	nl := buildToggleChain(t)
	if err := circuit.ApplyTMR(nl, []int{0, 1, 2}); err != nil {
		t.Fatalf("ApplyTMR: %v", err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		t.Fatalf("Synthesize after TMR: %v", err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("synthesized hardened netlist invalid: %v", err)
	}
}

func TestTMRCost(t *testing.T) {
	lib := netlist.StdLib()
	dff, err := lib.Lookup("DFF_X1")
	if err != nil {
		t.Fatal(err)
	}
	cost := circuit.TMRCost(dff)
	if cost <= 2*dff.AreaUnits() {
		t.Fatalf("TMR cost %v must exceed two replica flip-flops", cost)
	}
	if circuit.TMRVoterArea() <= 0 {
		t.Fatal("voter area must be positive")
	}
	dff4, _ := lib.Lookup("DFF_X4")
	if circuit.TMRCost(dff4) <= cost {
		t.Fatal("stronger flip-flops must cost more to harden")
	}
}
