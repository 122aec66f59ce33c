package sim

import "fmt"

// CheckLaneAgainstScalar verifies that lane `lane` of a packed trace matches
// a scalar run row-for-row; it returns a descriptive error on mismatch.
func CheckLaneAgainstScalar(t *Trace, scalar [][]bool, lane int) error {
	if t.cycles != len(scalar) {
		return fmt.Errorf("sim: trace has %d cycles, scalar %d", t.cycles, len(scalar))
	}
	for c := 0; c < t.cycles; c++ {
		for m := range t.Monitors {
			if t.Bit(c, m, lane) != scalar[c][m] {
				return fmt.Errorf("sim: lane %d differs from scalar at cycle %d monitor %d", lane, c, m)
			}
		}
	}
	return nil
}

// FFState returns the packed state of flip-flop ff.
func (e *Engine) FFState(ff int) uint64 { return e.nets[e.p.ffs[ff].q] }

// FFState returns the state of flip-flop ff.
func (e *ScalarEngine) FFState(ff int) bool { return e.nets[e.p.ffs[ff].q] }

// SlotRefs returns every register-file slot the kernel addresses: each
// instruction's destination and six operand fields (unused ones are slot
// 0), every capture's Q and D rows or Q, x and s rows, the input ports, the
// kept output ports and the two constants.
func (k *Kernel) SlotRefs() []int32 {
	refs := []int32{k.const0, k.const1}
	for _, ins := range k.code {
		refs = append(refs, ins.dst, ins.a, ins.b, ins.c, ins.d, ins.e, ins.f)
	}
	for _, c := range k.direct {
		refs = append(refs, c.q, c.d)
	}
	for _, h := range k.holds {
		refs = append(refs, h.q, h.x, h.s)
	}
	refs = append(refs, k.ffQ...)
	refs = append(refs, k.inSlot...)
	for _, s := range k.outSlot {
		if s >= 0 { // -1 is a pruned port
			refs = append(refs, s)
		}
	}
	return refs
}

// opNames names the opcodes, in kOp order, for the tests' census.
var opNames = [kHalt]string{
	kInv: "Inv", kAnd2: "And2", kAnd3: "And3", kAnd4: "And4",
	kOr2: "Or2", kOr3: "Or3", kOr4: "Or4",
	kNand2: "Nand2", kNand3: "Nand3", kNand4: "Nand4",
	kNor2: "Nor2", kNor3: "Nor3", kNor4: "Nor4",
	kXor2: "Xor2", kXnor2: "Xnor2", kMux2: "Mux2", kAOI21: "AOI21", kOAI21: "OAI21",
	kAO21: "AO21", kOA21: "OA21", kAndN: "AndN", kOrN: "OrN",
	kAO222: "AO222", kMuxA: "MuxA", kMuxB: "MuxB", kXor3: "Xor3",
}

// OpCounts counts the kernel's instructions by opcode name, with every
// opcode Eval implements listed, zeros included.
func (k *Kernel) OpCounts() map[string]int {
	counts := make(map[string]int, len(opNames))
	for _, name := range opNames {
		counts[name] = 0
	}
	for _, ins := range k.code {
		counts[opNames[ins.op]]++
	}
	return counts
}

// PlatformEvals names the Eval implementations this machine can run, the
// one engines use first.
func PlatformEvals() []string {
	names := make([]string, len(platformEvals))
	for i, ev := range platformEvals {
		names[i] = ev.name
	}
	return names
}

// UseEval makes e's Eval run the implementation of platformEvals named name.
func (e *KernelEngine) UseEval(name string) {
	for _, ev := range platformEvals {
		if ev.name == name {
			e.eval = ev.run
			return
		}
	}
	panic("sim: no Eval implementation " + name)
}

// Rows returns the engine's register file, one row per slot.
func (e *KernelEngine) Rows() [][DefaultKernelWords]uint64 { return e.regs }

// Words returns every packed word the snapshot set holds: the flip-flop
// bits of each restore point, then its loopback words.
func (s *Snapshots) Words() []uint64 { return append(append([]uint64(nil), s.ff...), s.lb...) }

// CaptureCensus counts the plain-copy flip-flops of p's kernel under cfg by
// what capture coalescing made of them: "coalesced", or the reason it kept
// the clock-edge copy — "D not an op", "shared D" (an earlier flip-flop took
// the D op), "Q an output port", "Q another FF's D", "Q a hold's x/s" or "Q
// read after D's op". The reasons come from the IR, "coalesced" from the
// kernel (an instruction writes the Q slot), so a refused flip-flop whose Q
// row an instruction writes, or a hold's, is counted under "wrongly written".
func CaptureCensus(p *Program, cfg KernelConfig) (map[string]int, error) {
	k, err := BuildKernel(p, cfg)
	if err != nil {
		return nil, err
	}
	written := map[int32]bool{}
	for _, ins := range k.code {
		written[ins.dst] = true
	}
	b := newIR(p)
	b.simplify()
	b.fuse()
	b.prune(cfg.KeepOutputs)
	holds := b.foldHolds()
	port, ffD, holdIn, claimed := map[int32]bool{}, map[int32]bool{}, map[int32]bool{}, map[int32]bool{}
	for _, n := range p.outputNets {
		port[b.resolve(n)] = true
	}
	for i, h := range holds {
		ffD[b.resolve(p.ffs[i].d)] = true
		if h.x >= 0 {
			holdIn[h.x], holdIn[h.s] = true, true
		}
	}
	census := map[string]int{}
	for i, h := range holds {
		d := b.resolve(p.ffs[i].d)
		why := "Q read after D's op"
		switch {
		case h.x >= 0:
			why = "hold"
		case b.kind[d] != irKindOp:
			why = "D not an op"
		case claimed[d]:
			why = "shared D"
		case port[h.q]:
			why = "Q an output port"
		case ffD[h.q]:
			why = "Q another FF's D"
		case holdIn[h.q]:
			why = "Q a hold's x/s"
		default:
			claimed[d] = true
			if written[k.ffQ[i]] {
				why = "coalesced"
			}
		}
		if why != "coalesced" && written[k.ffQ[i]] {
			why = "wrongly written"
		}
		if why != "hold" {
			census[why]++
		}
	}
	return census, nil
}
