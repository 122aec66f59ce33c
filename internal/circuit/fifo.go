package circuit

import (
	"fmt"

	"repro/internal/netlist"
)

// FIFO is a synchronous register-file FIFO with power-of-two depth.
// Simultaneous push and pop are allowed; pushes to a full FIFO and pops from
// an empty FIFO are suppressed internally.
type FIFO struct {
	// Out is the word at the head of the queue (valid when Empty is low).
	Out Word
	// Empty and Full are status flags.
	Empty netlist.NetID
	Full  netlist.NetID
	// Count is the occupancy (log2(depth)+1 bits).
	Count Word
}

// NewFIFO builds a FIFO holding depth words of len(din) bits. depth must be
// a power of two ≥ 2. push/pop request an enqueue/dequeue this cycle.
//
// Structure (mirrors what synthesis produces for a small register FIFO):
// a write decoder gating per-word enable muxes, a read mux tree addressed by
// the read pointer, binary read/write pointers and an occupancy counter.
func NewFIFO(b *netlist.Builder, name string, depth int, din Word, push, pop netlist.NetID) *FIFO {
	return newFIFO(b, name, depth, din, push, pop, false)
}

// NewHardenedFIFO builds the same FIFO with its control state (read/write
// pointers and occupancy counter) protected by triple modular redundancy —
// the selective-hardening scheme of the paper's references [3]-[5]. Data
// words stay unprotected, as selective TMR hardens only the state that
// would corrupt the whole stream.
func NewHardenedFIFO(b *netlist.Builder, name string, depth int, din Word, push, pop netlist.NetID) *FIFO {
	return newFIFO(b, name, depth, din, push, pop, true)
}

// StateWord builds a plain register bank whose next value is a function of
// its current value — the unhardened counterpart of TMRWord.
func StateWord(b *netlist.Builder, name string, width int, init uint64, next func(cur Word) Word) Word {
	q := make(Word, width)
	set := make([]func(netlist.NetID), width)
	for i := 0; i < width; i++ {
		q[i], set[i] = b.DFFDecl(fmt.Sprintf("%s[%d]", name, i), init>>uint(i)&1 == 1)
	}
	nxt := next(q)
	for i := 0; i < width; i++ {
		set[i](nxt[i])
	}
	return q
}

func stateOrTMRWord(b *netlist.Builder, hardened bool, name string, width int, init uint64, next func(cur Word) Word) Word {
	if hardened {
		return TMRWord(b, name, width, init, next)
	}
	return StateWord(b, name, width, init, next)
}

func newFIFO(b *netlist.Builder, name string, depth int, din Word, push, pop netlist.NetID, hardened bool) *FIFO {
	if depth < 2 || depth&(depth-1) != 0 {
		// Programmer error: every generator's Validate checks its FIFO depth first.
		panic(fmt.Sprintf("circuit: FIFO depth %d not a power of two >= 2", depth))
	}
	popScope := b.Scope(name)
	defer popScope()

	ptrBits := 0
	for 1<<uint(ptrBits) < depth {
		ptrBits++
	}
	cntBits := ptrBits + 1

	// Occupancy, flags, and push/pop gating. The gating nets are derived
	// from the (possibly voted) count inside the state function and
	// captured for use by the pointer and memory logic below.
	var empty, full, doPush, doPop netlist.NetID
	cnt := stateOrTMRWord(b, hardened, "count", cntBits, 0, func(cur Word) Word {
		empty = EqualConst(b, cur, 0)
		full = EqualConst(b, cur, uint64(depth))
		doPush = b.And(push, b.Not(full))
		doPop = b.And(pop, b.Not(empty))
		inc, _ := Incrementer(b, cur)
		dec := decrementer(b, cur)
		onlyPush := b.And(doPush, b.Not(doPop))
		onlyPop := b.And(doPop, b.Not(doPush))
		out := make(Word, len(cur))
		for i := range cur {
			v := b.Mux(cur[i], inc[i], onlyPush)
			out[i] = b.Mux(v, dec[i], onlyPop)
		}
		return out
	})

	advance := func(en netlist.NetID) func(cur Word) Word {
		return func(cur Word) Word {
			inc, _ := Incrementer(b, cur)
			return WordMux(b, cur, inc, en)
		}
	}
	wptr := stateOrTMRWord(b, hardened, "wptr", ptrBits, 0, advance(doPush))
	rptr := stateOrTMRWord(b, hardened, "rptr", ptrBits, 0, advance(doPop))

	// Storage: per-word enable registers behind a write decoder.
	wdec := Decoder(b, wptr)
	words := make([]Word, depth)
	for wi := 0; wi < depth; wi++ {
		en := b.And(doPush, wdec[wi])
		words[wi] = Register(b, fmt.Sprintf("mem%d", wi), din, en, 0)
	}

	out := WordMuxTree(b, words, rptr)
	return &FIFO{Out: out, Empty: empty, Full: full, Count: cnt}
}

// decrementer returns x-1 (borrow chain).
func decrementer(b *netlist.Builder, x Word) Word {
	out := make(Word, len(x))
	borrow := b.Const1()
	for i := range x {
		out[i] = b.Xor(x[i], borrow)
		borrow = b.And(b.Not(x[i]), borrow)
	}
	return out
}
