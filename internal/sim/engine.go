package sim

import (
	"fmt"

	"repro/internal/netlist"
)

// Lanes is the number of independent simulations a packed engine runs at
// once: one per bit of a uint64.
const Lanes = 64

// Engine is a 64-lane bit-parallel instance of a compiled program. All lanes
// share the same primary-input stimulus words (callers may still pack
// per-lane-distinct input bits into those words); lanes diverge through
// per-lane flip-flop state flips, which is exactly the fault model of the
// paper's campaign (SEU = inversion of a stored bit).
//
// Cycle protocol:
//
//	e.Reset()
//	for each cycle {
//	    e.SetInput(i, word) ...   // drive stimulus
//	    e.FlipFF(ff, laneMask)    // optional SEU(s) for this cycle
//	    e.Eval()                  // propagate combinational logic
//	    ... read e.Output(i)      // sample
//	    e.Commit()                // clock edge: FFs capture D
//	}
type Engine struct {
	p     *Program
	nets  []uint64
	nextQ []uint64 // FF capture scratch
}

// NewEngine returns a fresh engine instance for p. Instances are cheap;
// create one per worker goroutine.
func NewEngine(p *Program) *Engine {
	e := &Engine{
		p:     p,
		nets:  make([]uint64, p.nets),
		nextQ: make([]uint64, len(p.ffs)),
	}
	e.Reset()
	return e
}

// Reset loads every flip-flop's initial value into all lanes and clears all
// other nets.
func (e *Engine) Reset() {
	for i := range e.nets {
		e.nets[i] = 0
	}
	for _, ff := range e.p.ffs {
		if ff.init {
			e.nets[ff.q] = ^uint64(0)
		}
	}
}

// SetInput drives the packed word onto primary input port i.
func (e *Engine) SetInput(i int, word uint64) { e.nets[e.p.inputNets[i]] = word }

// SetInputBool broadcasts a single bit to all lanes of input port i.
func (e *Engine) SetInputBool(i int, v bool) {
	if v {
		e.nets[e.p.inputNets[i]] = ^uint64(0)
	} else {
		e.nets[e.p.inputNets[i]] = 0
	}
}

// FlipFF inverts the state of flip-flop ff (by FF index, see Program.FFCell)
// in every lane selected by laneMask. Call between Commit and Eval so the
// flipped state propagates through the following cycle — the paper's
// "inverting the value stored in a flip-flop using a simulator function".
func (e *Engine) FlipFF(ff int, laneMask uint64) {
	e.nets[e.p.ffs[ff].q] ^= laneMask
}

// ForceFF drives the state of flip-flop ff to value in every lane selected
// by laneMask, leaving other lanes untouched. Like FlipFF it is meant for
// the pre-Eval injection window; calling it every cycle of an interval
// models a stuck-at fault for that duration.
func (e *Engine) ForceFF(ff int, laneMask uint64, value bool) {
	if value {
		e.nets[e.p.ffs[ff].q] |= laneMask
	} else {
		e.nets[e.p.ffs[ff].q] &^= laneMask
	}
}

func (e *Engine) ffBits(dst []uint64) {
	for w := range dst {
		var word uint64
		for j, ff := range e.p.ffs[w*64 : min(w*64+64, len(e.p.ffs))] {
			word |= (e.nets[ff.q] & 1) << (j & 63)
		}
		dst[w] = word
	}
}

// FFD returns the packed D-pin value of flip-flop ff (valid after Eval):
// the value the flip-flop will capture at the next Commit.
func (e *Engine) FFD(ff int) uint64 { return e.nets[e.p.ffs[ff].d] }

// Output returns the packed word on primary output port i (valid after Eval).
func (e *Engine) Output(i int) uint64 { return e.nets[e.p.outputNets[i]] }

// Eval propagates the combinational logic in levelized order.
func (e *Engine) Eval() { e.evalFrom(0) }

// EvalPulse evaluates the combinational logic with a single-event transient
// on SET target t (see Program.NumCombTargets): the target cell's output is
// inverted for this one evaluation and the inversion propagates through its
// downstream cone. It performs a full baseline Eval first, so the non-cone
// nets hold their ordinary values; a subsequent plain Eval restores the
// un-pulsed evaluation. The pulse hits all 64 lanes.
func (e *Engine) EvalPulse(t int) {
	e.evalFrom(0)
	idx := int(e.p.combOps[t])
	e.nets[e.p.ops[idx].out] = ^e.nets[e.p.ops[idx].out]
	e.evalFrom(idx + 1)
}

// evalFrom runs ops[start:] in levelized order. Ops only read nets written
// by earlier ops (or FF/input nets), so re-running a suffix re-derives
// exactly the downstream values.
func (e *Engine) evalFrom(start int) {
	nets := e.nets
	for i := start; i < len(e.p.ops); i++ {
		o := &e.p.ops[i]
		var v uint64
		switch o.fn {
		case netlist.FuncBuf:
			v = nets[o.in[0]]
		case netlist.FuncInv:
			v = ^nets[o.in[0]]
		case netlist.FuncAnd:
			v = nets[o.in[0]] & nets[o.in[1]]
			if o.nin > 2 {
				v &= nets[o.in[2]]
				if o.nin > 3 {
					v &= nets[o.in[3]]
				}
			}
		case netlist.FuncOr:
			v = nets[o.in[0]] | nets[o.in[1]]
			if o.nin > 2 {
				v |= nets[o.in[2]]
				if o.nin > 3 {
					v |= nets[o.in[3]]
				}
			}
		case netlist.FuncNand:
			v = nets[o.in[0]] & nets[o.in[1]]
			if o.nin > 2 {
				v &= nets[o.in[2]]
				if o.nin > 3 {
					v &= nets[o.in[3]]
				}
			}
			v = ^v
		case netlist.FuncNor:
			v = nets[o.in[0]] | nets[o.in[1]]
			if o.nin > 2 {
				v |= nets[o.in[2]]
				if o.nin > 3 {
					v |= nets[o.in[3]]
				}
			}
			v = ^v
		case netlist.FuncXor:
			v = nets[o.in[0]] ^ nets[o.in[1]]
		case netlist.FuncXnor:
			v = ^(nets[o.in[0]] ^ nets[o.in[1]])
		case netlist.FuncMux2:
			s := nets[o.in[2]]
			v = (nets[o.in[0]] &^ s) | (nets[o.in[1]] & s)
		case netlist.FuncAOI21:
			v = ^((nets[o.in[0]] & nets[o.in[1]]) | nets[o.in[2]])
		case netlist.FuncOAI21:
			v = ^((nets[o.in[0]] | nets[o.in[1]]) & nets[o.in[2]])
		case netlist.FuncConst0:
			v = 0
		case netlist.FuncConst1:
			v = ^uint64(0)
		default:
			// Programmer error: Compile emits only the library's combinational
			// funcs, whatever netlist Parse accepted (FuzzKernelMatchesEngine).
			panic(fmt.Sprintf("sim: unsupported op %v", o.fn))
		}
		nets[o.out] = v
	}
}

// Commit performs the clock edge: every flip-flop captures its D input.
// Capture is two-phase so FF-to-FF paths see pre-edge values.
func (e *Engine) Commit() {
	for i := range e.p.ffs {
		e.nextQ[i] = e.nets[e.p.ffs[i].d]
	}
	for i := range e.p.ffs {
		e.nets[e.p.ffs[i].q] = e.nextQ[i]
	}
}
