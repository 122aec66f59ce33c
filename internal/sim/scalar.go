package sim

import "repro/internal/netlist"

// ScalarEngine is the single-lane reference simulator. It shares no
// evaluation code with Engine (it interprets netlist.EvalScalar over bools),
// which makes the lane-equivalence property test in this package meaningful.
type ScalarEngine struct {
	p     *Program
	nets  []bool
	nextQ []bool
}

// NewScalarEngine returns a reset scalar instance of p.
func NewScalarEngine(p *Program) *ScalarEngine {
	e := &ScalarEngine{
		p:     p,
		nets:  make([]bool, p.nets),
		nextQ: make([]bool, len(p.ffs)),
	}
	e.Reset()
	return e
}

// Reset loads initial flip-flop values and clears all other nets.
func (e *ScalarEngine) Reset() {
	for i := range e.nets {
		e.nets[i] = false
	}
	for _, ff := range e.p.ffs {
		e.nets[ff.q] = ff.init
	}
}

// SetInput drives primary input port i.
func (e *ScalarEngine) SetInput(i int, v bool) { e.nets[e.p.inputNets[i]] = v }

// FlipFF inverts the state of flip-flop ff.
func (e *ScalarEngine) FlipFF(ff int) {
	q := e.p.ffs[ff].q
	e.nets[q] = !e.nets[q]
}

// Output returns primary output port i (valid after Eval).
func (e *ScalarEngine) Output(i int) bool { return e.nets[e.p.outputNets[i]] }

// Eval propagates combinational logic using the reference semantics.
func (e *ScalarEngine) Eval() {
	var buf [4]bool
	for i := range e.p.ops {
		o := &e.p.ops[i]
		in := buf[:o.nin]
		for j := int8(0); j < o.nin; j++ {
			in[j] = e.nets[o.in[j]]
		}
		e.nets[o.out] = netlist.EvalScalar(o.fn, in)
	}
}

// Commit performs the clock edge.
func (e *ScalarEngine) Commit() {
	for i := range e.p.ffs {
		e.nextQ[i] = e.nets[e.p.ffs[i].d]
	}
	for i := range e.p.ffs {
		e.nets[e.p.ffs[i].q] = e.nextQ[i]
	}
}
