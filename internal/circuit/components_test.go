package circuit_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// harness compiles a freshly built combinational/sequential fixture.
func compileFixture(t *testing.T, build func(b *netlist.Builder)) *sim.Program {
	t.Helper()
	b := netlist.NewBuilder("fixture")
	build(b)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func driveBus(e *sim.Engine, ports []int, v uint64) {
	for i, p := range ports {
		e.SetInputBool(p, v>>uint(i)&1 == 1)
	}
}

func readBusLane0(e *sim.Engine, ports []int) uint64 {
	var v uint64
	for i, p := range ports {
		v |= (e.Output(p) & 1) << uint(i)
	}
	return v
}

// Property: the ripple-carry adder implements addition mod 2^w.
func TestAdderMatchesIntegerAddition(t *testing.T) {
	const w = 8
	p := compileFixture(t, func(b *netlist.Builder) {
		x := b.InputBus("x", w)
		y := b.InputBus("y", w)
		cin := b.Input("cin")
		sum, cout := circuit.Adder(b, x, y, cin)
		b.OutputBus("sum", sum)
		b.Output("cout", cout)
	})
	e := sim.NewEngine(p)
	xs, _ := p.InputBusIndices("x", w)
	ys, _ := p.InputBusIndices("y", w)
	cin, _ := p.InputIndex("cin")
	sums, _ := p.OutputBusIndices("sum", w)
	cout, _ := p.OutputIndex("cout")

	prop := func(a, bb uint8, c bool) bool {
		driveBus(e, xs, uint64(a))
		driveBus(e, ys, uint64(bb))
		e.SetInputBool(cin, c)
		e.Eval()
		want := uint64(a) + uint64(bb)
		if c {
			want++
		}
		gotSum := readBusLane0(e, sums)
		gotCout := e.Output(cout) & 1
		return gotSum == want&0xFF && gotCout == want>>w
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementerAndEqualConst(t *testing.T) {
	const w = 6
	p := compileFixture(t, func(b *netlist.Builder) {
		x := b.InputBus("x", w)
		inc, carry := circuit.Incrementer(b, x)
		b.OutputBus("inc", inc)
		b.Output("carry", carry)
		b.Output("is42", circuit.EqualConst(b, x, 42))
	})
	e := sim.NewEngine(p)
	xs, _ := p.InputBusIndices("x", w)
	incs, _ := p.OutputBusIndices("inc", w)
	carry, _ := p.OutputIndex("carry")
	is42, _ := p.OutputIndex("is42")
	for v := uint64(0); v < 64; v++ {
		driveBus(e, xs, v)
		e.Eval()
		if got := readBusLane0(e, incs); got != (v+1)&63 {
			t.Fatalf("inc(%d) = %d", v, got)
		}
		if got := e.Output(carry) & 1; got != (v+1)>>w {
			t.Fatalf("carry(%d) = %d", v, got)
		}
		if got := e.Output(is42)&1 == 1; got != (v == 42) {
			t.Fatalf("is42(%d) = %v", v, got)
		}
	}
}

func TestDecoderAndMuxTree(t *testing.T) {
	p := compileFixture(t, func(b *netlist.Builder) {
		sel := b.InputBus("sel", 3)
		data := b.InputBus("data", 8)
		dec := circuit.Decoder(b, sel)
		for i, d := range dec {
			b.Output(fmt.Sprintf("dec[%d]", i), d)
		}
		b.Output("picked", circuit.MuxTree(b, data, sel))
	})
	e := sim.NewEngine(p)
	sels, _ := p.InputBusIndices("sel", 3)
	datas, _ := p.InputBusIndices("data", 8)
	decs, _ := p.OutputBusIndices("dec", 8)
	picked, _ := p.OutputIndex("picked")

	driveBus(e, datas, 0b10110010)
	for s := uint64(0); s < 8; s++ {
		driveBus(e, sels, s)
		e.Eval()
		if got := readBusLane0(e, decs); got != 1<<s {
			t.Fatalf("decoder(%d) = %08b", s, got)
		}
		want := 0b10110010 >> s & 1
		if got := e.Output(picked) & 1; got != uint64(want) {
			t.Fatalf("muxtree(%d) = %d, want %d", s, got, want)
		}
	}
}

func TestMuxTreePanicsOnBadArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := netlist.NewBuilder("bad")
	circuit.MuxTree(b, make([]netlist.NetID, 3), b.InputBus("s", 2))
}

func TestShiftRegisterAndDelayLine(t *testing.T) {
	p := compileFixture(t, func(b *netlist.Builder) {
		in := b.Input("in")
		en := b.Input("en")
		st := circuit.ShiftRegister(b, "sr", 4, in, en)
		for i, s := range st {
			b.Output(fmt.Sprintf("sr[%d]", i), s)
		}
	})
	e := sim.NewEngine(p)
	in, _ := p.InputIndex("in")
	en, _ := p.InputIndex("en")
	srs, _ := p.OutputBusIndices("sr", 4)

	e.SetInputBool(en, true)
	pattern := []bool{true, false, true, true}
	for _, bit := range pattern {
		e.SetInputBool(in, bit)
		e.Eval()
		e.Commit()
	}
	e.Eval()
	// Stage 0 holds the newest bit.
	if got := readBusLane0(e, srs); got != 0b1011 {
		t.Fatalf("shift register = %04b, want 1011", got)
	}
	// Disable: contents must freeze.
	e.SetInputBool(en, false)
	e.SetInputBool(in, false)
	e.Eval()
	e.Commit()
	e.Eval()
	if got := readBusLane0(e, srs); got != 0b1011 {
		t.Fatalf("frozen shift register = %04b", got)
	}
}

func TestUpdownAndRegister(t *testing.T) {
	p := compileFixture(t, func(b *netlist.Builder) {
		d := b.InputBus("d", 4)
		en := b.Input("en")
		q := circuit.Register(b, "r", d, en, 0b1010)
		b.OutputBus("q", q)
	})
	e := sim.NewEngine(p)
	ds, _ := p.InputBusIndices("d", 4)
	en, _ := p.InputIndex("en")
	qs, _ := p.OutputBusIndices("q", 4)

	e.Eval()
	if got := readBusLane0(e, qs); got != 0b1010 {
		t.Fatalf("init = %04b, want 1010", got)
	}
	driveBus(e, ds, 0b0110)
	e.SetInputBool(en, false)
	e.Eval()
	e.Commit()
	e.Eval()
	if got := readBusLane0(e, qs); got != 0b1010 {
		t.Fatalf("hold failed: %04b", got)
	}
	e.SetInputBool(en, true)
	e.Eval()
	e.Commit()
	e.Eval()
	if got := readBusLane0(e, qs); got != 0b0110 {
		t.Fatalf("load failed: %04b", got)
	}
}

// TestTMRMasksSingleUpsets is the core hardening property: flipping any
// single replica bit of a TMR word never changes the voted output or the
// long-run behavior.
func TestTMRMasksSingleUpsets(t *testing.T) {
	p := compileFixture(t, func(b *netlist.Builder) {
		en := b.Input("en")
		clear := b.Input("clear")
		q := circuit.TMRCounter(b, "cnt", 6, en, clear)
		b.OutputBus("q", q)
	})
	nFFs := p.NumFFs()
	if nFFs != 18 { // 3 replicas × 6 bits
		t.Fatalf("TMR counter has %d FFs, want 18", nFFs)
	}
	en, _ := p.InputIndex("en")
	clear, _ := p.InputIndex("clear")
	qs, _ := p.OutputBusIndices("q", 6)

	// Golden: count for 20 cycles.
	run := func(flipFF, flipCycle int) uint64 {
		e := sim.NewEngine(p)
		e.SetInputBool(en, true)
		e.SetInputBool(clear, false)
		for c := 0; c < 20; c++ {
			if c == flipCycle && flipFF >= 0 {
				e.FlipFF(flipFF, 1)
			}
			e.Eval()
			e.Commit()
		}
		e.Eval()
		return readBusLane0(e, qs)
	}
	golden := run(-1, 0)
	if golden != 20 {
		t.Fatalf("golden count = %d, want 20", golden)
	}
	for ff := 0; ff < nFFs; ff++ {
		for _, cycle := range []int{0, 7, 19} {
			if got := run(ff, cycle); got != golden {
				t.Fatalf("TMR failed to mask upset in FF %d at cycle %d: %d != %d",
					ff, cycle, got, golden)
			}
		}
	}
}

// TestUnprotectedCounterUpsetsPersist is the contrast case: the same upset
// in a plain counter corrupts the final count.
func TestUnprotectedCounterUpsetsPersist(t *testing.T) {
	p := compileFixture(t, func(b *netlist.Builder) {
		en := b.Input("en")
		clear := b.Input("clear")
		q := circuit.Counter(b, "cnt", 6, en, clear)
		b.OutputBus("q", q)
	})
	en, _ := p.InputIndex("en")
	clear, _ := p.InputIndex("clear")
	qs, _ := p.OutputBusIndices("q", 6)
	e := sim.NewEngine(p)
	e.SetInputBool(en, true)
	e.SetInputBool(clear, false)
	for c := 0; c < 20; c++ {
		if c == 7 {
			e.FlipFF(5, 1) // flip the MSB
		}
		e.Eval()
		e.Commit()
	}
	e.Eval()
	if got := readBusLane0(e, qs); got == 20 {
		t.Fatal("unprotected counter silently absorbed an upset")
	}
}

// TestScramblerRoundTrip: scrambling then descrambling with synchronized
// LFSRs is the identity — verified end-to-end through the MAC loopback in
// mac_test.go; here we pin the LFSR step itself.
func TestScramblerStepPeriod(t *testing.T) {
	p := compileFixture(t, func(b *netlist.Builder) {
		q := circuit.StateWord(b, "s", 8, circuit.ScramblerSeed, func(cur circuit.Word) circuit.Word {
			return scramblerStepForTest(b, cur)
		})
		b.OutputBus("q", q)
	})
	qs, _ := p.OutputBusIndices("q", 8)
	e := sim.NewEngine(p)
	seen := map[uint64]bool{}
	period := 0
	for c := 0; c < 300; c++ {
		e.Eval()
		v := readBusLane0(e, qs)
		if v == 0 {
			t.Fatal("scrambler reached all-zero lockup")
		}
		if seen[v] {
			period = c
			break
		}
		seen[v] = true
		e.Commit()
	}
	if period < 60 {
		t.Fatalf("scrambler period %d too short for whitening", period)
	}
}

// scramblerStepForTest mirrors the MAC's internal LFSR step (taps 8,6,5,4).
func scramblerStepForTest(b *netlist.Builder, cur circuit.Word) circuit.Word {
	fb := b.Xor(b.Xor(cur[7], cur[5]), b.Xor(cur[4], cur[3]))
	next := make(circuit.Word, 8)
	next[0] = fb
	for i := 1; i < 8; i++ {
		next[i] = cur[i-1]
	}
	return next
}

// TestBufferInsertionLimitsFanout verifies the synthesis DRC pass.
func TestBufferInsertionLimitsFanout(t *testing.T) {
	// One net feeding 40 inverters grossly violates MaxFanout.
	b := netlist.NewBuilder("fan")
	in := b.Input("a")
	for i := 0; i < 40; i++ {
		b.Output(fmt.Sprintf("o%d", i), b.Not(in))
	}
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	fanout := circuit.Fanout(nl)
	for i, f := range fanout {
		drv := nl.Nets[i].Driver
		if drv >= 0 {
			fn := nl.Cells[drv].Type.Func
			if fn == netlist.FuncConst0 || fn == netlist.FuncConst1 {
				continue
			}
		}
		if f > circuit.MaxFanout {
			t.Fatalf("net %q fanout %d exceeds %d after synthesis",
				nl.Nets[i].Name, f, circuit.MaxFanout)
		}
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("netlist invalid after buffering: %v", err)
	}
	// Behavior must be unchanged: all outputs still equal !a.
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e := sim.NewEngine(p)
	a, _ := p.InputIndex("a")
	e.SetInputBool(a, true)
	e.Eval()
	for i := 0; i < 40; i++ {
		o, _ := p.OutputIndex(fmt.Sprintf("o%d", i))
		if e.Output(o)&1 != 0 {
			t.Fatalf("output %d wrong after buffering", i)
		}
	}
}

func TestWordHelpers(t *testing.T) {
	p := compileFixture(t, func(b *netlist.Builder) {
		x := b.InputBus("x", 4)
		y := b.InputBus("y", 4)
		sel := b.Input("sel")
		b.OutputBus("xor", circuit.WordXor(b, x, y))
		b.OutputBus("mux", circuit.WordMux(b, x, y, sel))
		b.OutputBus("inv", circuit.WordInv(b, x))
		b.OutputBus("and1", circuit.WordAnd1(b, x, sel))
		b.OutputBus("konst", circuit.WordConst(b, 4, 0b0101))
	})
	e := sim.NewEngine(p)
	xs, _ := p.InputBusIndices("x", 4)
	ys, _ := p.InputBusIndices("y", 4)
	sel, _ := p.InputIndex("sel")
	get := func(name string) uint64 {
		ports, err := p.OutputBusIndices(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		return readBusLane0(e, ports)
	}
	driveBus(e, xs, 0b1100)
	driveBus(e, ys, 0b1010)
	e.SetInputBool(sel, false)
	e.Eval()
	if get("xor") != 0b0110 || get("mux") != 0b1100 || get("inv") != 0b0011 ||
		get("and1") != 0 || get("konst") != 0b0101 {
		t.Fatalf("word helpers wrong: xor=%04b mux=%04b inv=%04b and1=%04b konst=%04b",
			get("xor"), get("mux"), get("inv"), get("and1"), get("konst"))
	}
	e.SetInputBool(sel, true)
	driveBus(e, ys, 0b1100)
	e.Eval()
	if get("mux") != 0b1100 || get("and1") != 0b1100 {
		t.Fatal("sel=1 helpers wrong")
	}
}
