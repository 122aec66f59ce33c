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

// WideOpCounts counts the kernel's wide-fusion superops by name.
func (k *Kernel) WideOpCounts() map[string]int {
	names := map[kOp]string{kAO222: "AO222", kMuxA: "MuxA", kMuxB: "MuxB", kXor3: "Xor3"}
	counts := make(map[string]int, len(names))
	for _, ins := range k.code {
		if name, ok := names[ins.op]; ok {
			counts[name]++
		}
	}
	return counts
}
