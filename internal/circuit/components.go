package circuit

import (
	"fmt"

	"repro/internal/netlist"
)

// Word is a multi-bit bus, LSB first.
type Word = []netlist.NetID

// WordConst drives a constant value onto a width-bit bus using tie cells.
func WordConst(b *netlist.Builder, width int, value uint64) Word {
	w := make(Word, width)
	for i := 0; i < width; i++ {
		if value>>uint(i)&1 == 1 {
			w[i] = b.Const1()
		} else {
			w[i] = b.Const0()
		}
	}
	return w
}

// WordMux selects d1 when sel is high, else d0, bit-wise.
// The operands must have equal width.
func WordMux(b *netlist.Builder, d0, d1 Word, sel netlist.NetID) Word {
	w := make(Word, len(d0))
	for i := range d0 {
		w[i] = b.Mux(d0[i], d1[i], sel)
	}
	return w
}

// WordXor returns the bit-wise XOR of equally sized buses.
func WordXor(b *netlist.Builder, x, y Word) Word {
	w := make(Word, len(x))
	for i := range x {
		w[i] = b.Xor(x[i], y[i])
	}
	return w
}

// WordAnd1 gates every bit of x with the enable net.
func WordAnd1(b *netlist.Builder, x Word, en netlist.NetID) Word {
	w := make(Word, len(x))
	for i := range x {
		w[i] = b.And(x[i], en)
	}
	return w
}

// WordInv inverts every bit of x.
func WordInv(b *netlist.Builder, x Word) Word {
	w := make(Word, len(x))
	for i := range x {
		w[i] = b.Not(x[i])
	}
	return w
}

// Adder builds a ripple-carry adder and returns sum (same width as a) and
// carry out. Operands must have equal width.
func Adder(b *netlist.Builder, a, y Word, cin netlist.NetID) (Word, netlist.NetID) {
	sum := make(Word, len(a))
	carry := cin
	for i := range a {
		axy := b.Xor(a[i], y[i])
		sum[i] = b.Xor(axy, carry)
		// carry' = (a&y) | (carry & (a^y))
		carry = b.Or(b.And(a[i], y[i]), b.And(carry, axy))
	}
	return sum, carry
}

// Incrementer returns x+1 (half-adder chain) and the final carry.
func Incrementer(b *netlist.Builder, x Word) (Word, netlist.NetID) {
	sum := make(Word, len(x))
	carry := b.Const1()
	for i := range x {
		sum[i] = b.Xor(x[i], carry)
		carry = b.And(x[i], carry)
	}
	return sum, carry
}

// EqualConst returns a net that is high when bus x equals the constant k.
func EqualConst(b *netlist.Builder, x Word, k uint64) netlist.NetID {
	terms := make([]netlist.NetID, len(x))
	for i := range x {
		if k>>uint(i)&1 == 1 {
			terms[i] = x[i]
		} else {
			terms[i] = b.Not(x[i])
		}
	}
	return b.And(terms...)
}

// Decoder returns the one-hot decode of sel: out[i] is high iff sel == i.
// It produces 2^len(sel) outputs.
func Decoder(b *netlist.Builder, sel Word) []netlist.NetID {
	n := 1 << uint(len(sel))
	out := make([]netlist.NetID, n)
	for i := 0; i < n; i++ {
		out[i] = EqualConst(b, sel, uint64(i))
	}
	return out
}

// MuxTree selects inputs[sel] from a power-of-two input list, bit by bit.
// len(inputs) must equal 1<<len(sel).
func MuxTree(b *netlist.Builder, inputs []netlist.NetID, sel Word) netlist.NetID {
	if len(inputs) != 1<<uint(len(sel)) {
		// Programmer error: every caller's arity is fixed by its generator.
		panic(fmt.Sprintf("circuit: MuxTree with %d inputs, %d select bits", len(inputs), len(sel)))
	}
	layer := append([]netlist.NetID(nil), inputs...)
	for s := 0; s < len(sel); s++ {
		next := make([]netlist.NetID, len(layer)/2)
		for i := range next {
			next[i] = b.Mux(layer[2*i], layer[2*i+1], sel[s])
		}
		layer = next
	}
	return layer[0]
}

// WordMuxTree applies MuxTree across equally wide words.
func WordMuxTree(b *netlist.Builder, words []Word, sel Word) Word {
	width := len(words[0])
	out := make(Word, width)
	column := make([]netlist.NetID, len(words))
	for bit := 0; bit < width; bit++ {
		for w := range words {
			column[w] = words[w][bit]
		}
		out[bit] = MuxTree(b, column, sel)
	}
	return out
}

// Register builds a width-bit register with synchronous enable: when en is
// high the register loads d, otherwise it holds. Bits are named
// name[0..width-1] and initialized from init (bit i of init).
func Register(b *netlist.Builder, name string, d Word, en netlist.NetID, init uint64) Word {
	q := make(Word, len(d))
	for i := range d {
		qi, setD := b.DFFDecl(fmt.Sprintf("%s[%d]", name, i), init>>uint(i)&1 == 1)
		setD(b.Mux(qi, d[i], en))
		q[i] = qi
	}
	return q
}

// Counter builds a width-bit up counter with enable and synchronous clear
// (clear wins over enable). It returns the counter value.
func Counter(b *netlist.Builder, name string, width int, en, clear netlist.NetID) Word {
	q := make(Word, width)
	setters := make([]func(netlist.NetID), width)
	for i := 0; i < width; i++ {
		q[i], setters[i] = b.DFFDecl(fmt.Sprintf("%s[%d]", name, i), false)
	}
	next := counterNext(b, q, en, clear)
	for i := 0; i < width; i++ {
		setters[i](next[i])
	}
	return q
}

// TMRCounter is Counter with triplicated, majority-voted state — the
// hardened twin used by the selective-hardening study.
func TMRCounter(b *netlist.Builder, name string, width int, en, clear netlist.NetID) Word {
	return TMRWord(b, name, width, 0, func(cur Word) Word {
		return counterNext(b, cur, en, clear)
	})
}

func counterNext(b *netlist.Builder, cur Word, en, clear netlist.NetID) Word {
	inc, _ := Incrementer(b, cur)
	out := make(Word, len(cur))
	for i := range cur {
		v := b.Mux(cur[i], inc[i], en)  // hold or count
		out[i] = b.And(v, b.Not(clear)) // synchronous clear to 0
	}
	return out
}

// ShiftRegister builds a chain of width single-bit stages; in enters stage 0
// and the return value lists every stage output, stage width-1 being the
// oldest bit. Shifting is gated by en.
func ShiftRegister(b *netlist.Builder, name string, width int, in netlist.NetID, en netlist.NetID) []netlist.NetID {
	stages := make([]netlist.NetID, width)
	prev := in
	for i := 0; i < width; i++ {
		qi, setD := b.DFFDecl(fmt.Sprintf("%s[%d]", name, i), false)
		setD(b.Mux(qi, prev, en))
		stages[i] = qi
		prev = qi
	}
	return stages
}

// DiagTraceBuffer builds the corpus DUTs' shared FF-budget padding: a live
// shift register sampling `in` whose XOR parity is the returned net (expose
// it through an output so trace faults stay functionally relevant). With
// targetFFs > 0 the depth is chosen to land the builder's flip-flop count
// exactly on targetFFs; otherwise defaultDepth is used. It fails when the
// budget is already exceeded.
func DiagTraceBuffer(b *netlist.Builder, targetFFs, defaultDepth int, in netlist.NetID) (netlist.NetID, error) {
	depth := defaultDepth
	if targetFFs > 0 {
		remaining := targetFFs - b.FFCount()
		if remaining < 1 {
			return 0, fmt.Errorf("circuit: TargetFFs %d below structural minimum %d",
				targetFFs, b.FFCount()+1)
		}
		depth = remaining
	}
	trace := ShiftRegister(b, "diag/trace", depth, in, b.Const1())
	parity := trace[0]
	for _, t := range trace[1:] {
		parity = b.Xor(parity, t)
	}
	return parity, nil
}

// Majority returns the two-of-three majority vote of a, b, c.
func Majority(bd *netlist.Builder, a, b, c netlist.NetID) netlist.NetID {
	return bd.Or(bd.And(a, b), bd.And(a, c), bd.And(b, c))
}

// TMRWord builds a triplicated, majority-voted register bank — the
// selective-hardening structure of the paper's references [3]-[5], in its
// classic full-TMR form: voters and next-state logic are triplicated too,
// so no single voter (or logic cone) is a single point of failure. Each
// replica r loads next(vote_r(a,b,c)), where vote_r is that replica's own
// voter instance; any single upset is out-voted within one cycle. The
// returned word is one voter's output (which downstream logic consumes).
// Replicas are named name_a/_b/_c.
func TMRWord(bd *netlist.Builder, name string, width int, init uint64, next func(cur Word) Word) Word {
	replicas := [3]Word{}
	setters := [3][]func(netlist.NetID){}
	suffix := []string{"a", "b", "c"}
	for r := 0; r < 3; r++ {
		replicas[r] = make(Word, width)
		setters[r] = make([]func(netlist.NetID), width)
		for i := 0; i < width; i++ {
			replicas[r][i], setters[r][i] = bd.DFFDecl(
				fmt.Sprintf("%s_%s[%d]", name, suffix[r], i), init>>uint(i)&1 == 1)
		}
	}
	var firstVote Word
	for r := 0; r < 3; r++ {
		voted := make(Word, width)
		for i := 0; i < width; i++ {
			voted[i] = Majority(bd, replicas[0][i], replicas[1][i], replicas[2][i])
		}
		if r == 0 {
			firstVote = voted
		}
		nxt := next(voted)
		for i := 0; i < width; i++ {
			setters[r][i](nxt[i])
		}
	}
	return firstVote
}
