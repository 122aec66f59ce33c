package sim_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"

	"repro/internal/circuit"
	"repro/internal/netlist"
)

// compileCounter compiles a standalone width-bit counter with enable and
// clear inputs and the count as output.
func compileCounter(t *testing.T, width int) *sim.Program {
	t.Helper()
	b := netlist.NewBuilder(fmt.Sprintf("counter%d", width))
	en := b.Input("en")
	clear := b.Input("clear")
	b.OutputBus("q", circuit.Counter(b, "cnt", width, en, clear))
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("counter: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

// lfsrCircuit builds a maximal-length 16-bit LFSR (taps 16,15,13,4 →
// indices 15,14,12,3) with a run enable input.
func lfsrCircuit() (*netlist.Netlist, error) {
	b := netlist.NewBuilder("lfsr16")
	en := b.Input("en")
	q := make(circuit.Word, 16)
	setters := make([]func(netlist.NetID), 16)
	for i := range q {
		q[i], setters[i] = b.DFFDecl(fmt.Sprintf("lfsr[%d]", i), i == 0) // init 0x0001
	}
	fb := b.Xor(b.Xor(q[15], q[14]), b.Xor(q[12], q[3]))
	setters[0](b.Mux(q[0], fb, en))
	for i := 1; i < 16; i++ {
		setters[i](b.Mux(q[i], q[i-1], en))
	}
	b.OutputBus("q", q)
	return b.Finish()
}

func readBus(e *sim.Engine, first, width int, lane uint) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v |= (e.Output(first+i) >> lane & 1) << uint(i)
	}
	return v
}

func TestEngineCounterCounts(t *testing.T) {
	p := compileCounter(t, 8)
	e := sim.NewEngine(p)
	en, err := p.InputIndex("en")
	if err != nil {
		t.Fatalf("InputIndex: %v", err)
	}
	clr, err := p.InputIndex("clear")
	if err != nil {
		t.Fatalf("InputIndex: %v", err)
	}
	q0, err := p.OutputIndex("q[0]")
	if err != nil {
		t.Fatalf("OutputIndex: %v", err)
	}
	e.SetInputBool(en, true)
	e.SetInputBool(clr, false)
	for c := 0; c < 10; c++ {
		e.Eval()
		if got := readBus(e, q0, 8, 0); got != uint64(c) {
			t.Fatalf("cycle %d: count = %d, want %d", c, got, c)
		}
		e.Commit()
	}
	// Hold.
	e.SetInputBool(en, false)
	for c := 0; c < 3; c++ {
		e.Eval()
		if got := readBus(e, q0, 8, 0); got != 10 {
			t.Fatalf("hold: count = %d, want 10", got)
		}
		e.Commit()
	}
	// Clear.
	e.SetInputBool(clr, true)
	e.Eval()
	e.Commit()
	e.SetInputBool(clr, false)
	e.Eval()
	if got := readBus(e, q0, 8, 0); got != 0 {
		t.Fatalf("after clear: count = %d, want 0", got)
	}
}

func TestEngineCounterWraps(t *testing.T) {
	p := compileCounter(t, 3)
	e := sim.NewEngine(p)
	en, _ := p.InputIndex("en")
	clr, _ := p.InputIndex("clear")
	q0, _ := p.OutputIndex("q[0]")
	e.SetInputBool(en, true)
	e.SetInputBool(clr, false)
	for c := 0; c < 20; c++ {
		e.Eval()
		if got := readBus(e, q0, 3, 0); got != uint64(c%8) {
			t.Fatalf("cycle %d: count = %d, want %d", c, got, c%8)
		}
		e.Commit()
	}
}

func TestEngineResetRestoresInit(t *testing.T) {
	nl, err := lfsrCircuit()
	if err != nil {
		t.Fatalf("lfsrCircuit: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e := sim.NewEngine(p)
	en, _ := p.InputIndex("en")
	e.SetInputBool(en, true)
	for c := 0; c < 5; c++ {
		e.Eval()
		e.Commit()
	}
	stateAfter := e.FFState(0)
	e.Reset()
	q0, _ := p.OutputIndex("q[0]")
	e.Eval()
	if got := readBus(e, q0, 16, 0); got != 1 {
		t.Fatalf("after reset: lfsr = %#x, want 0x0001", got)
	}
	_ = stateAfter
}

func TestEngineFlipFFPropagates(t *testing.T) {
	p := compileCounter(t, 8)
	e := sim.NewEngine(p)
	en, _ := p.InputIndex("en")
	clr, _ := p.InputIndex("clear")
	q0, _ := p.OutputIndex("q[0]")
	e.SetInputBool(en, true)
	e.SetInputBool(clr, false)
	for c := 0; c < 4; c++ {
		e.Eval()
		e.Commit()
	}
	// Flip bit 2 (value 4) in lanes 0 and 7 only.
	e.FlipFF(2, 1|1<<7)
	e.Eval()
	if got := readBus(e, q0, 8, 0); got != 0 {
		t.Fatalf("lane 0 after flip: %d, want 0 (4 ^ 4)", got)
	}
	if got := readBus(e, q0, 8, 7); got != 0 {
		t.Fatalf("lane 7 after flip: %d, want 0", got)
	}
	if got := readBus(e, q0, 8, 3); got != 4 {
		t.Fatalf("lane 3 (no flip): %d, want 4", got)
	}
}

func TestLFSRMaximalPeriod(t *testing.T) {
	nl, err := lfsrCircuit()
	if err != nil {
		t.Fatalf("lfsrCircuit: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e := sim.NewEngine(p)
	en, _ := p.InputIndex("en")
	q0, _ := p.OutputIndex("q[0]")
	e.SetInputBool(en, true)
	e.Eval()
	start := readBus(e, q0, 16, 0)
	e.Commit()
	period := 0
	for c := 1; c <= 1<<16; c++ {
		e.Eval()
		if readBus(e, q0, 16, 0) == start {
			period = c
			break
		}
		e.Commit()
	}
	// Taps 16,15,13,4 give a maximal-length sequence: period 2^16-1.
	if period != (1<<16)-1 {
		t.Fatalf("LFSR period = %d, want %d", period, (1<<16)-1)
	}
}

// laneEquivalence runs a random circuit with random stimulus and random
// per-lane fault flips on the packed engine, and re-runs each lane on the
// scalar reference engine; every monitored bit must match.
func TestPackedMatchesScalarUnderFaults(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := circuit.RandomConfig{
			Inputs:  1 + rng.Intn(4),
			FFs:     1 + rng.Intn(8),
			Gates:   5 + rng.Intn(40),
			Outputs: 1 + rng.Intn(4),
		}
		nl, err := circuit.RandomCircuit(cfg, seed)
		if err != nil {
			t.Logf("RandomCircuit: %v", err)
			return false
		}
		p, err := sim.Compile(nl)
		if err != nil {
			t.Logf("Compile: %v", err)
			return false
		}
		cycles := 5 + rng.Intn(20)
		stim := sim.NewStimulus(cycles)
		for i := 0; i < cfg.Inputs; i++ {
			set := stim.DrivePort(i)
			for c := 0; c < cycles; c++ {
				set(c, rng.Intn(2) == 1)
			}
		}
		monitors := make([]int, cfg.Outputs)
		for i := range monitors {
			monitors[i] = i
		}
		// Random injection plan: per lane, at most one (ff, cycle) flip.
		type flip struct {
			ff, cycle int
		}
		flips := make([]flip, sim.Lanes)
		for l := range flips {
			flips[l] = flip{ff: rng.Intn(cfg.FFs), cycle: rng.Intn(cycles)}
		}
		e := sim.NewEngine(p)
		trace, _ := sim.Run(e, stim, sim.RunConfig{
			Monitors: monitors,
			PreEval: func(c int) {
				for l, f := range flips {
					if f.cycle == c {
						e.FlipFF(f.ff, 1<<uint(l))
					}
				}
			},
		})
		// Check a sample of lanes against the scalar engine.
		se := sim.NewScalarEngine(p)
		for _, lane := range []int{0, 1, 31, 63, rng.Intn(sim.Lanes)} {
			f := flips[lane]
			scalar := sim.RunScalar(se, stim, monitors, func(c int) {
				if f.cycle == c {
					se.FlipFF(f.ff)
				}
			})
			if err := sim.CheckLaneAgainstScalar(trace, scalar, lane); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestActivityCollection(t *testing.T) {
	// A free-running 1-bit toggler: q' = !q starting at 0.
	b := netlist.NewBuilder("tgl")
	q, setD := b.DFFDecl("t", false)
	setD(b.Not(q))
	b.Output("q", q)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e := sim.NewEngine(p)
	stim := sim.NewStimulus(10)
	_, act := sim.Run(e, stim, sim.RunConfig{CollectActivity: true})
	if act == nil {
		t.Fatal("activity not collected")
	}
	// Starting at 0, states over 10 observed cycles: 0,1,0,1,... → 5 ones,
	// 9 transitions after the first observation.
	if act.Ones[0] != 5 {
		t.Fatalf("Ones = %d, want 5", act.Ones[0])
	}
	if act.Toggles[0] != 9 {
		t.Fatalf("Toggles = %d, want 9", act.Toggles[0])
	}
	if act.Cycles != 10 {
		t.Fatalf("Cycles = %d, want 10", act.Cycles)
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	nl := netlist.NewNetlist("bad")
	if _, err := nl.AddNet("floating", -1); err != nil {
		t.Fatalf("AddNet: %v", err)
	}
	if _, err := sim.Compile(nl); err == nil {
		t.Fatal("Compile must reject invalid netlists")
	}
}

func TestPortResolution(t *testing.T) {
	p := compileCounter(t, 4)
	if _, err := p.InputIndex("nope"); err == nil {
		t.Fatal("expected error for unknown input")
	}
	if _, err := p.OutputIndex("nope"); err == nil {
		t.Fatal("expected error for unknown output")
	}
	if _, err := p.InputIndex("q[0]_unknown"); err == nil {
		t.Fatal("expected error for non-input net")
	}
	bus, err := p.OutputBusIndices("q", 4)
	if err != nil {
		t.Fatalf("OutputBusIndices: %v", err)
	}
	if len(bus) != 4 {
		t.Fatalf("bus = %v", bus)
	}
	if p.NumFFs() != 4 || p.NumInputs() != 2 || p.NumOutputs() != 4 {
		t.Fatalf("counts: ffs=%d in=%d out=%d", p.NumFFs(), p.NumInputs(), p.NumOutputs())
	}
}

func TestCheckLaneAgainstScalarMismatch(t *testing.T) {
	tr := sim.NewTrace([]int{0}, 1)
	if err := sim.CheckLaneAgainstScalar(tr, [][]bool{{true}}, 0); err == nil {
		t.Fatal("expected mismatch error")
	}
	if err := sim.CheckLaneAgainstScalar(tr, nil, 0); err == nil {
		t.Fatal("expected cycle-count error")
	}
	if err := sim.CheckLaneAgainstScalar(tr, [][]bool{{false}}, 0); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}
