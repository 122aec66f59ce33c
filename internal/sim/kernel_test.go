package sim_test

// Property test: the three execution backends — ScalarEngine (n-ary
// reference semantics), the packed Engine interpreter and the compiled
// KernelEngine — must agree bit-for-bit on randomized netlists under
// random stimulus and random flip-flop upsets, across multiple cycles and
// batch widths. The generator deliberately includes the cell types the
// corpus generators underuse: TIEL/TIEH (constant folding paths), BUF
// (copy propagation), NAND/NOR (inverted forms) and AOI21/OAI21 (the
// fusion superops). Every netlist also carries the flip-flop topologies the
// kernel's Commit treats specially: an FF fed straight by a primary input,
// direct FF→FF shift links (one through a BUF that copy propagation
// removes), an FF holding its own Q, load-enable FFs in every shape the
// compiler folds into a hold capture or must leave alone, in-place holds
// sharing one enable, and plain flip-flops in each shape capture coalescing
// must refuse. Last come the idioms wide fusion merges into one
// superop, each also in a negative form whose producer must stay an op.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// randKernelNetlist generates a random valid netlist exercising every
// combinational cell type the standard library offers, including constant
// ties and buffers.
func randKernelNetlist(seed int64) (*netlist.Netlist, error) {
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(fmt.Sprintf("kprop_%d", seed))
	// The builder makes no BUF, NAND2 or NOR2 cells: as builds an INV, AND2
	// or OR2 in their place, and the finished netlist is retyped.
	retype := map[netlist.NetID]string{}
	as := func(cell string, out netlist.NetID) netlist.NetID {
		retype[out] = cell
		return out
	}

	nIn := 3 + rng.Intn(6)
	nFF := 2 + rng.Intn(6)
	nGates := 30 + rng.Intn(120)
	nOut := 2 + rng.Intn(4)

	pool := make([]netlist.NetID, 0, nIn+nFF+nGates+2)
	for i := 0; i < nIn; i++ {
		pool = append(pool, b.Input(fmt.Sprintf("in[%d]", i)))
	}
	pool = append(pool, b.Const0(), b.Const1())
	ffSet := make([]func(netlist.NetID), nFF)
	for i := 0; i < nFF; i++ {
		var q netlist.NetID
		q, ffSet[i] = b.DFFDecl(fmt.Sprintf("ff[%d]", i), rng.Intn(2) == 1)
		pool = append(pool, q)
	}
	// in[0] → ffIn → ffShift[0] → BUF → ffShift[1], and ffHold ↺.
	qIn, setIn := b.DFFDecl("ffIn", false)
	qS0, setS0 := b.DFFDecl("ffShift[0]", true)
	qS1, setS1 := b.DFFDecl("ffShift[1]", false)
	qHold, setHold := b.DFFDecl("ffHold", true)
	setIn(pool[0])
	setS0(qIn)
	setS1(as("BUF_X1", b.Not(qS0)))
	setHold(qHold)
	pool = append(pool, qIn, qS0, qS1, qHold)
	pick := func() netlist.NetID { return pool[rng.Intn(len(pool))] }
	for g := 0; g < nGates; g++ {
		var out netlist.NetID
		switch rng.Intn(15) {
		case 0:
			out = b.Not(pick())
		case 1:
			out = as("BUF_X1", b.Not(pick()))
		case 2:
			out = b.And(pick(), pick())
		case 3:
			out = b.And(pick(), pick(), pick(), pick())
		case 4:
			out = b.Or(pick(), pick())
		case 5:
			out = b.Or(pick(), pick(), pick())
		case 6:
			out = as("NAND2_X1", b.And(pick(), pick()))
		case 7:
			out = as("NOR2_X1", b.Or(pick(), pick()))
		case 8:
			out = b.Xor(pick(), pick())
		case 9:
			out = b.Xnor(pick(), pick())
		case 10:
			out = b.Mux(pick(), pick(), pick())
		case 11:
			out = b.AOI21(pick(), pick(), pick())
		case 12:
			out = b.OAI21(pick(), pick(), pick())
		case 13:
			// Chains the fuse pass targets: INV over AND/OR, AND of OR.
			out = b.Not(b.And(pick(), pick()))
		default:
			out = b.Or(b.And(pick(), pick()), pick())
		}
		pool = append(pool, out)
	}
	for i := range ffSet {
		ffSet[i](pick())
	}
	for i := 0; i < nOut; i++ {
		b.Output(fmt.Sprintf("out[%d]", i), pick())
	}
	// Load-enable flip-flops, D = mux(Q, x, en), which the compiler turns
	// into hold captures: holding while en is 0, while en is 1, with en its
	// own Q, and with en or x the Q of an earlier hold (so the capture must
	// stage: run in place, it would read that Q after its edge). Then three
	// hold muxes it must keep as ops: one a gate also reads, one driving an
	// output port, one feeding two flip-flops.
	en0, en1 := pool[1], pool[2]
	hold := func(name string, d func(q netlist.NetID) netlist.NetID) (q, dNet netlist.NetID) {
		q, set := b.DFFDecl(name, rng.Intn(2) == 1)
		dNet = d(q)
		set(dNet)
		return q, dNet
	}
	q0, _ := hold("ffHold0", func(q netlist.NetID) netlist.NetID { return b.Mux(q, pick(), en0) })
	q1, _ := hold("ffHold1", func(q netlist.NetID) netlist.NetID { return b.Mux(pick(), q, en1) })
	hold("ffHoldSelf", func(q netlist.NetID) netlist.NetID { return b.Mux(q, pick(), q) })
	hold("ffHoldEnQ", func(q netlist.NetID) netlist.NetID { return b.Mux(q, pick(), q0) })
	hold("ffHoldLoadQ", func(q netlist.NetID) netlist.NetID { return b.Mux(q, q1, en0) })
	_, read := hold("ffHoldRead", func(q netlist.NetID) netlist.NetID { return b.Mux(q, pick(), en1) })
	b.Output("holdRead", b.Xor(read, pick()))
	_, out := hold("ffHoldOut", func(q netlist.NetID) netlist.NetID { return b.Mux(pick(), q, en0) })
	b.Output("holdOut", out)
	_, shared := hold("ffHoldShared", func(q netlist.NetID) netlist.NetID { return b.Mux(q, pick(), en1) })
	b.DFF("ffHoldTwin", shared, false)

	// The idioms take their leaves from the inputs and flip-flop outputs, so
	// no constant folds them away and an upset makes their words differ.
	leaves := append(pool[:nIn:nIn], pool[nIn+2:nIn+nFF+6]...)
	leaf := func() netlist.NetID { return leaves[rng.Intn(len(leaves))] }
	and := func() netlist.NetID { return b.And(leaf(), leaf()) }
	mux := func() netlist.NetID { return b.Mux(leaf(), leaf(), leaf()) }
	xor := func() netlist.NetID { return b.Xor(leaf(), leaf()) }

	// In-place holds sharing an enable, two holding while it is 0 and two
	// while it is 1; the enable is logic over flip-flop state, so its words
	// differ once an upset lands.
	en := b.Xor(leaves[nIn+rng.Intn(nFF+4)], leaves[nIn+rng.Intn(nFF+4)])
	for i := 0; i < 4; i++ {
		hold(fmt.Sprintf("ffEn[%d]", i), func(q netlist.NetID) netlist.NetID {
			if i%2 == 0 {
				return b.Mux(q, and(), en)
			}
			return b.Mux(and(), q, en)
		})
	}

	// Wide fusion: an OR3 of AND2s, mux chains on the else and the then side,
	// an XOR2 chain.
	b.Output("ao222", b.Or(and(), and(), and()))
	b.Output("muxElse", b.Mux(b.Mux(mux(), leaf(), leaf()), leaf(), leaf()))
	b.Output("muxThen", b.Mux(leaf(), b.Mux(leaf(), mux(), leaf()), leaf()))
	b.Output("xorChain", b.Xor(b.Xor(xor(), leaf()), leaf()))
	// The same shapes with a producer read again: by a second gate, as an
	// FF's D net, as a hold's data and enable, on an output port.
	twice := and()
	b.Output("andTwice", b.Or(twice, and(), and()))
	b.Output("andAgain", b.Xor(twice, leaf()))
	muxD := mux()
	b.DFF("ffMuxD", muxD, false)
	b.Output("muxD", b.Mux(muxD, leaf(), leaf()))
	x, sel := xor(), xor()
	hold("ffHoldXor", func(q netlist.NetID) netlist.NetID { return b.Mux(q, x, sel) })
	b.Output("xorX", b.Xor(x, leaf()))
	b.Output("xorS", b.Xor(leaf(), sel))
	port := and()
	b.Output("andPort", port)
	b.Output("andPortRead", b.Or(and(), port, and()))

	// Capture coalescing: a plain flip-flop on an op's D net whose Q is read
	// by an output port, as another flip-flop's D, as a hold's data, or by an
	// op after D's, must keep its clock-edge copy (ffIn, ffShift[0] and ffHold
	// have a D that is no op, ffHoldTwin shares ffHoldShared's D).
	plain := func(name string, d netlist.NetID) netlist.NetID {
		q, set := b.DFFDecl(name, rng.Intn(2) == 1)
		set(d)
		return q
	}
	b.Output("qPort", plain("ffQPort", and()))
	b.DFF("ffQShiftNext", plain("ffQShift", xor()), false)
	qData := plain("ffQData", b.Or(leaf(), leaf()))
	hold("ffHoldQData", func(q netlist.NetID) netlist.NetID { return b.Mux(q, qData, leaf()) })
	late := and()
	b.Output("qLate", b.Xor(late, plain("ffQLate", late)))
	nl, err := b.Finish()
	if err != nil {
		return nil, err
	}
	return nl, retypeCells(nl, retype)
}

// retypeCells gives the cell driving each net of retype the named library
// cell type, which must have the same inputs as the one it replaces.
func retypeCells(nl *netlist.Netlist, retype map[netlist.NetID]string) error {
	for out, name := range retype {
		ct, err := netlist.StdLib().Lookup(name)
		if err != nil {
			return err
		}
		nl.Cells[nl.Nets[out].Driver].Type = ct
	}
	return nil
}

// TestKernelMatchesInterpreters holds a KernelEngine of W words, for every
// W the row holds, to the interpreters (matchInterpreters) on 25 random
// netlists.
func TestKernelMatchesInterpreters(t *testing.T) {
	var tot sim.KernelStats
	wide := map[string]int{"AO222": 0, "MuxA": 0, "MuxB": 0, "Xor3": 0}
	for seed := int64(1); seed <= 25; seed++ {
		for W := 1; W <= sim.DefaultKernelWords; W++ {
			var k *sim.Kernel
			t.Run(fmt.Sprintf("seed%d-W%d", seed, W), func(t *testing.T) {
				k = kernelMatchesInterpreters(t, seed, W)
			})
			if k == nil {
				continue
			}
			st := k.Stats()
			tot.Fused += st.Fused
			tot.Folded += st.Folded
			tot.Pruned += st.Pruned
			tot.Holds += st.Holds
			counts := k.OpCounts()
			for op := range wide {
				wide[op] += counts[op]
			}
		}
	}
	// The generator feeds every optimization pass and every wide-fusion
	// superop; across 25 seeds each must have found work, or the compiler is
	// silently a no-op.
	if tot.Fused == 0 || tot.Folded == 0 || tot.Pruned == 0 || tot.Holds == 0 {
		t.Fatalf("optimizer idle across all seeds: fused=%d folded=%d pruned=%d holds=%d",
			tot.Fused, tot.Folded, tot.Pruned, tot.Holds)
	}
	for op, n := range wide {
		if n == 0 {
			t.Errorf("optimizer idle across all seeds: no %s emitted (%v)", op, wide)
		}
	}
}

// kernelMatchesInterpreters runs one (netlist seed, batch width) case and
// returns the kernel it checked.
func kernelMatchesInterpreters(t *testing.T, seed int64, W int) *sim.Kernel {
	p, k := randKernel(t, seed)
	if st := k.Stats(); st.KernelOps > st.ProgramOps {
		t.Fatalf("kernel grew: %+v", st)
	}
	matchInterpreters(t, p, k, W, 24, seed*7919+int64(W))
	return k
}

// randKernel compiles randKernelNetlist(seed) and its kernel, every output
// port kept.
func randKernel(t *testing.T, seed int64) (*sim.Program, *sim.Kernel) {
	t.Helper()
	nl, err := randKernelNetlist(seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sim.BuildKernel(p, sim.KernelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p, k
}

// matchInterpreters runs matchInterpretersOn once per Eval implementation
// this machine can run, as a subtest named after it, each from the same seed.
func matchInterpreters(t *testing.T, p *sim.Program, k *sim.Kernel, W, cycles int, seed int64) {
	t.Helper()
	for _, eval := range sim.PlatformEvals() {
		t.Run(eval, func(t *testing.T) {
			matchInterpretersOn(t, p, k, eval, W, cycles, rand.New(rand.NewSource(seed)))
		})
	}
}

// matchInterpretersOn drives a KernelEngine of W words on the named Eval
// through the given number of cycles against W independent packed Engines
// (word w ≡ narrow batch w) and a ScalarEngine shadowing lane 0 of word 0:
// random inputs and, on two cycles in three, an upset in one random word.
// Every output word must agree on every cycle and every flip-flop word after
// every clock edge.
func matchInterpretersOn(t *testing.T, p *sim.Program, k *sim.Kernel, eval string, W, cycles int, rng *rand.Rand) {
	t.Helper()
	ke := sim.NewKernelEngine(k, W)
	ke.UseEval(eval)
	if ke.Lanes() != W*sim.Lanes {
		t.Fatalf("lanes %d, want %d", ke.Lanes(), W*sim.Lanes)
	}
	narrow := make([]*sim.Engine, W)
	for w := range narrow {
		narrow[w] = sim.NewEngine(p)
	}
	sc := sim.NewScalarEngine(p)

	nIn, nOut, nFF := p.NumInputs(), p.NumOutputs(), p.NumFFs()
	for cycle := 0; cycle < cycles; cycle++ {
		for i := 0; i < nIn; i++ {
			v := rng.Intn(2) == 1
			ke.SetInputBool(i, v)
			for _, e := range narrow {
				e.SetInputBool(i, v)
			}
			sc.SetInput(i, v)
		}
		if nFF > 0 && rng.Intn(3) != 0 { // SEU injection on a random word
			ff, w := rng.Intn(nFF), rng.Intn(W)
			mask := rng.Uint64() | 1
			ke.FlipFF(ff, w, mask)
			narrow[w].FlipFF(ff, mask)
			if w == 0 {
				sc.FlipFF(ff)
			}
		}
		ke.Eval()
		sc.Eval()
		for w, e := range narrow {
			e.Eval()
			for i := 0; i < nOut; i++ {
				if got, want := ke.OutputWord(i, w), e.Output(i); got != want {
					t.Fatalf("cycle %d out %d word %d: kernel %016x, interp %016x", cycle, i, w, got, want)
				}
			}
		}
		for i := 0; i < nOut; i++ {
			if got, want := sc.Output(i), narrow[0].Output(i)&1 == 1; got != want {
				t.Fatalf("cycle %d out %d: scalar %v, interp lane0 %v", cycle, i, got, want)
			}
		}
		ke.Commit()
		sc.Commit()
		for w, e := range narrow {
			e.Commit()
			for f := 0; f < nFF; f++ {
				if got, want := ke.FFWord(f, w), e.FFState(f); got != want {
					t.Fatalf("cycle %d ff %d word %d: kernel %016x, interp %016x", cycle, f, w, got, want)
				}
			}
		}
		for f := 0; f < nFF; f++ {
			if got, want := sc.FFState(f), narrow[0].FFState(f)&1 == 1; got != want {
				t.Fatalf("cycle %d ff %d: scalar %v, interp lane0 %v", cycle, f, got, want)
			}
		}
	}
}

// TestRunKernelMatchesRun holds RunKernel to Run on the 25 random netlists
// (runKernelMatchesRun). Between Eval and Commit a coalesced capture's Q row
// already holds the next state, so a run loop sampling flip-flops there
// would record a kernel's activity one cycle early.
func TestRunKernelMatchesRun(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p, k := randKernel(t, seed)
			runKernelMatchesRun(t, p, k, 40, seed)
		})
	}
}

// runKernelMatchesRun runs a random stimulus of the given length, with a
// loopback from output 0 into the last input when there are both and every
// flip-flop inverted by the injection hook on one cycle, through Run on the
// interpreter and RunKernel on k under each Eval implementation: traces,
// activity and every snapshot word must be equal.
func runKernelMatchesRun(t *testing.T, p *sim.Program, k *sim.Kernel, cycles int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	stim := sim.NewStimulus(cycles)
	nIn, nOut, nFF := p.NumInputs(), p.NumOutputs(), p.NumFFs()
	driven := nIn
	if nIn > 1 && nOut > 0 {
		driven--
		stim.AddLoopback(nIn-1, 0)
	}
	for i := 0; i < driven; i++ {
		set := stim.DrivePort(i)
		for c := 0; c < cycles; c++ {
			set(c, rng.Intn(2) == 1)
		}
	}
	monitors := make([]int, nOut)
	for i := range monitors {
		monitors[i] = i
	}
	flipAt := rng.Intn(cycles)
	flipAll := func(flip func(ff int)) func(int) {
		return func(c int) {
			for ff := 0; c == flipAt && ff < nFF; ff++ {
				flip(ff)
			}
		}
	}
	const every = 4
	interp := sim.NewEngine(p)
	wantSnaps := sim.NewSnapshots(p, stim, every)
	want, wantAct := sim.Run(interp, stim, sim.RunConfig{
		Monitors: monitors, CollectActivity: true, Snapshots: wantSnaps,
		PreEval: flipAll(func(ff int) { interp.FlipFF(ff, ^uint64(0)) }),
	})
	for _, eval := range sim.PlatformEvals() {
		t.Run(eval, func(t *testing.T) {
			e := sim.NewKernelEngine(k, 1)
			e.UseEval(eval)
			snaps := sim.NewSnapshots(p, stim, every)
			got, act := sim.RunKernel(e, stim, sim.RunConfig{
				Monitors: monitors, CollectActivity: true, Snapshots: snaps,
				PreEval: flipAll(func(ff int) { e.FlipFF(ff, 0, ^uint64(0)) }),
			})
			if !got.Equal(want) {
				t.Error("RunKernel's trace differs from Run's")
			}
			if act.Cycles != wantAct.Cycles || !slices.Equal(act.Ones, wantAct.Ones) || !slices.Equal(act.Toggles, wantAct.Toggles) {
				t.Errorf("RunKernel's activity differs from Run's: ones %v toggles %v, want %v %v",
					act.Ones, act.Toggles, wantAct.Ones, wantAct.Toggles)
			}
			if !slices.Equal(snaps.Words(), wantSnaps.Words()) {
				t.Error("RunKernel's snapshots differ from Run's")
			}
		})
	}
}

// TestCaptureCoalescingCensus requires capture coalescing to find work on
// the random netlists and each of its refusals to occur there
// (sim.CaptureCensus), no refused flip-flop's Q row to be an instruction's
// destination, and every "coalescing refused" seed of the fuzz corpus to
// show the refusal it is named for.
func TestCaptureCoalescingCensus(t *testing.T) {
	census := func(t *testing.T, p *sim.Program) map[string]int {
		t.Helper()
		c, err := sim.CaptureCensus(p, sim.KernelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if c["wrongly written"] != 0 {
			t.Errorf("an instruction writes the Q row of a flip-flop coalescing refused: %v", c)
		}
		return c
	}
	tot := map[string]int{}
	for seed := int64(1); seed <= 25; seed++ {
		p, _ := randKernel(t, seed)
		for why, n := range census(t, p) {
			tot[why] += n
		}
	}
	for _, why := range []string{"coalesced", "D not an op", "shared D", "Q an output port",
		"Q another FF's D", "Q a hold's x/s", "Q read after D's op"} {
		if tot[why] == 0 {
			t.Errorf("no %q capture across the random netlists: %v", why, tot)
		}
	}
	for _, seed := range kernelSeeds {
		why, ok := strings.CutPrefix(seed.name, "coalescing refused: ")
		if !ok {
			continue
		}
		nl, err := netlist.Parse(strings.NewReader(seed.gnl))
		if err != nil {
			t.Fatal(err)
		}
		p, err := sim.Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		if c := census(t, p); c[why] == 0 {
			t.Errorf("seed %q: census %v", seed.name, c)
		}
	}
}

// TestKernelPrunedOutputs checks dead-fanout pruning against a restricted
// observed set: kept ports and all flip-flop state must stay bit-identical
// to the interpreter while reading a pruned port panics.
func TestKernelPrunedOutputs(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 104729))
		nl, err := randKernelNetlist(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, err := sim.Compile(nl)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		k, err := sim.BuildKernel(p, sim.KernelConfig{KeepOutputs: []int{0}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ke := sim.NewKernelEngine(k, 2)
		e := sim.NewEngine(p)
		nIn, nFF := p.NumInputs(), p.NumFFs()
		for cycle := 0; cycle < 16; cycle++ {
			for i := 0; i < nIn; i++ {
				v := rng.Intn(2) == 1
				ke.SetInputBool(i, v)
				e.SetInputBool(i, v)
			}
			if cycle == 3 {
				mask := rng.Uint64()
				ke.FlipFF(0, 0, mask)
				e.FlipFF(0, mask)
			}
			ke.Eval()
			e.Eval()
			if got, want := ke.OutputWord(0, 0), e.Output(0); got != want {
				t.Fatalf("seed %d cycle %d: kept output diverged: %016x vs %016x", seed, cycle, got, want)
			}
			ke.Commit()
			e.Commit()
			for f := 0; f < nFF; f++ {
				if got, want := ke.FFWord(f, 0), e.FFState(f); got != want {
					t.Fatalf("seed %d cycle %d ff %d: %016x vs %016x", seed, cycle, f, got, want)
				}
			}
		}
	}
}

// TestKernelOutputWordPanicsOnPruned pins the contract that reading an
// output outside KeepOutputs is a programming error, not silent garbage.
func TestKernelOutputWordPanicsOnPruned(t *testing.T) {
	b := netlist.NewBuilder("pruned")
	a := b.Input("a")
	c := b.Input("c")
	b.Output("keep", b.And(a, c))
	b.Output("drop", b.Xor(a, c))
	nl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sim.BuildKernel(p, sim.KernelConfig{KeepOutputs: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewKernelEngine(k, 1)
	e.Eval()
	defer func() {
		if recover() == nil {
			t.Fatal("reading a pruned output port did not panic")
		}
	}()
	_ = e.OutputWord(1, 0)
}

// TestProgramKernelMemo pins Program.Kernel's once-per-(program, ports)
// contract: callers racing for the same kept-port set — in any order, with
// duplicates — all get the one compiled kernel; a different set, nil
// (keep all) included, is its own kernel; a bad port is an error every time.
func TestProgramKernelMemo(t *testing.T) {
	nl, err := randKernelNetlist(3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumOutputs() < 2 {
		t.Fatalf("fixture has %d outputs, need 2", p.NumOutputs())
	}
	keeps := [][]int{{0, 1}, {1, 0}, {1, 0, 1}}
	got := make([]*sim.Kernel, 8*len(keeps))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, err := p.Kernel(keeps[i%len(keeps)])
			if err != nil {
				t.Error(err)
			}
			got[i] = k
		}()
	}
	wg.Wait()
	for i, k := range got {
		if k == nil || k != got[0] {
			t.Fatalf("caller %d got kernel %p, caller 0 %p", i, k, got[0])
		}
	}
	if keeps[1][0] != 1 {
		t.Fatal("Kernel reordered the caller's port list")
	}
	for _, keep := range [][]int{nil, {}, {0}} {
		k, err := p.Kernel(keep)
		if err != nil {
			t.Fatal(err)
		}
		if k == got[0] {
			t.Fatalf("ports %#v share the kernel of ports [0 1]", keep)
		}
	}
	all, _ := p.Kernel(nil)
	none, _ := p.Kernel([]int{})
	if all == none {
		t.Fatal("keep-all and keep-none share a kernel")
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Kernel([]int{p.NumOutputs()}); err == nil {
			t.Fatal("out-of-range kept port accepted")
		}
	}
}

// TestMACKernelShape pins what the compiler makes of the full MAC's campaign
// kernel, so a pass that starts or stops finding work shows up as a cause.
func TestMACKernelShape(t *testing.T) {
	p, bench := compiledMAC(t)
	st := campaignKernel(t, p, bench.Stim, bench.Monitors).Stats()
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"kernel ops", st.KernelOps, 2551},
		{"slots", st.Slots, 1800},
		{"fused", st.Fused, 1284},
		{"holds", st.Holds, 690},
		{"pruned", st.Pruned, 102},
		{"coalesced", st.Coalesced, 326},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (%+v)", c.name, c.got, c.want, st)
		}
	}
}

// TestKernelLayout pins the register file's addressing contract on the
// kernels campaigns really run — the full-size MAC and every corpus scenario,
// compiled with the campaign's kept ports: every slot an instruction, a
// flip-flop capture or a port names lies inside the register file (Eval and
// Commit index it unconditionally), and a warm cycle step or window
// allocates nothing.
func TestKernelLayout(t *testing.T) {
	check := func(t *testing.T, p *sim.Program, stim *sim.Stimulus, monitors []int) {
		k := campaignKernel(t, p, stim, monitors)
		slots := k.Stats().Slots
		for i, s := range k.SlotRefs() {
			if s < 0 || int(s) >= slots {
				t.Fatalf("slot reference %d is %d, register file has %d slots", i, s, slots)
			}
		}
		e := sim.NewKernelEngine(k, sim.DefaultKernelWords)
		if n := testing.AllocsPerRun(5, func() { e.Eval(); e.Commit() }); n != 0 {
			t.Fatalf("Eval+Commit allocate %v times per cycle", n)
		}
		snaps := sim.NewSnapshots(p, stim, 0)
		sim.Run(sim.NewEngine(p), stim, sim.RunConfig{Monitors: monitors, Snapshots: snaps})
		cfg := sim.WideWindowConfig{Monitors: monitors, Traces: make([]*sim.Trace, e.Words())}
		for w := range cfg.Traces {
			cfg.Traces[w] = sim.NewTrace(monitors, stim.Cycles())
		}
		window := func() { sim.RunWindowWide(e, stim, snaps, stim.Cycles()/2, cfg) }
		window() // warm the engine's window scratch
		if n := testing.AllocsPerRun(3, window); n != 0 {
			t.Fatalf("RunWindowWide allocates %v times per window", n)
		}
	}
	t.Run("mac10ge/full", func(t *testing.T) {
		p, bench := compiledMAC(t)
		check(t, p, bench.Stim, bench.Monitors)
	})
	for _, sc := range corpus.List() {
		t.Run(sc.ID(), func(t *testing.T) {
			m, err := sc.Materialize(corpus.ScaleSmall, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(t, m.Program, m.Bench.Stim, m.Bench.Monitors)
		})
	}
}

// TestKernelEvalsMatchGo holds every Eval implementation this machine can
// run to the Go loop on register files of random words, which reach
// in-place destinations and operand patterns that a reset or simulated file
// never holds: on the full MAC's campaign kernel, every corpus scenario's at
// both scales and the kernels of TestKernelMatchesInterpreters' 25 random
// netlists. Every row must agree after each pass, and every opcode must
// appear in those kernels, so that no opcode's implementation goes untested.
func TestKernelEvalsMatchGo(t *testing.T) {
	census := map[string]int{}
	check := func(t *testing.T, k *sim.Kernel, seed int64) {
		for op, n := range k.OpCounts() {
			census[op] += n
		}
		ref := sim.NewKernelEngine(k, sim.DefaultKernelWords)
		ref.UseEval("go")
		for _, eval := range sim.PlatformEvals() {
			e := sim.NewKernelEngine(k, sim.DefaultKernelWords)
			e.UseEval(eval)
			rng := rand.New(rand.NewSource(seed))
			for pass := 0; pass < 4; pass++ {
				got, want := e.Rows(), ref.Rows()
				for s := range want {
					for w := range want[s] {
						want[s][w] = rng.Uint64()
					}
					got[s] = want[s]
				}
				e.Eval()
				ref.Eval()
				for s := range want {
					if got[s] != want[s] {
						t.Fatalf("%s Eval, pass %d: slot %d is %016x, the Go loop gives %016x", eval, pass, s, got[s], want[s])
					}
				}
			}
		}
	}
	t.Run("mac10ge/full", func(t *testing.T) {
		p, bench := compiledMAC(t)
		check(t, campaignKernel(t, p, bench.Stim, bench.Monitors), 1)
	})
	for _, scale := range []corpus.Scale{corpus.ScaleSmall, corpus.ScaleDefault} {
		for i, sc := range corpus.List() {
			t.Run(sc.ID()+"/"+scale.String(), func(t *testing.T) {
				m, err := sc.Materialize(scale, 1)
				if err != nil {
					t.Fatal(err)
				}
				check(t, campaignKernel(t, m.Program, m.Bench.Stim, m.Bench.Monitors), int64(2+i))
			})
		}
	}
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			_, k := randKernel(t, seed)
			check(t, k, seed)
		})
	}
	for op, n := range census {
		if n == 0 {
			t.Errorf("no kernel has a %s instruction: %v", op, census)
		}
	}
}
