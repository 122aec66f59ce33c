package sim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/netlist"
)

// op is one compiled combinational evaluation step.
type op struct {
	out int32
	in  [4]int32
	fn  netlist.Func
	nin int8
}

// ffInfo describes one flip-flop in the compiled program.
type ffInfo struct {
	cell netlist.CellID
	d    int32 // D-pin net
	q    int32 // output net
	init bool
}

// Program is the compiled, immutable form of a netlist: combinational cells
// in topological evaluation order plus the flip-flop set. Programs are safe
// for concurrent use; per-run state lives in Engine instances.
type Program struct {
	nl   *netlist.Netlist
	ops  []op
	ffs  []ffInfo
	nets int

	inputNets  []int32 // primary input nets in port order
	outputNets []int32 // primary output nets in port order

	// SET targets: one per combinational cell, in netlist cell order, so a
	// target index is stable for a given netlist. combOps holds the index of
	// the op computing the cell's output net (for a decomposed wide gate, the
	// root op).
	combOps []int32

	// kernels memoizes Kernel by kept-port set. The memo lives on the
	// program so it dies with it: a process that builds many studies
	// (hardening verification, fabric workers, corpus sweeps) retains no
	// kernel beyond the last reference to its program.
	kernelMu sync.Mutex
	kernels  map[string]kernelMemo
}

type kernelMemo struct {
	k   *Kernel
	err error
}

// Kernel returns the program's kernel for the given kept output ports (see
// KernelConfig.KeepOutputs; order and duplicates don't matter, nil keeps
// every port), compiling it on first use. Studies build a runner per
// campaign over one program; every one of them, from any goroutine, shares
// the one immutable kernel compiled here.
func (p *Program) Kernel(keep []int) (*Kernel, error) {
	keep = slices.Clone(keep) // nil (keep all) stays nil, empty (keep none) empty
	slices.Sort(keep)
	keep = slices.Compact(keep)
	key := fmt.Sprintf("%#v", keep)
	p.kernelMu.Lock()
	defer p.kernelMu.Unlock()
	m, ok := p.kernels[key]
	if !ok {
		m.k, m.err = BuildKernel(p, KernelConfig{KeepOutputs: keep})
		if p.kernels == nil {
			p.kernels = make(map[string]kernelMemo)
		}
		p.kernels[key] = m
	}
	return m.k, m.err
}

// Compile levelizes the netlist and returns a reusable program.
func Compile(nl *netlist.Netlist) (*Program, error) {
	order, err := nl.CombOrder() // validates
	if err != nil {
		return nil, fmt.Errorf("sim: compile: %w", err)
	}
	p := &Program{nl: nl, nets: len(nl.Nets)}
	p.ops = make([]op, 0, len(nl.Cells))
	for _, ci := range order {
		c := &nl.Cells[ci]
		if c.Type.IsSequential() {
			continue
		}
		if len(c.Inputs) > opWidth(c.Type.Func) {
			if err := p.decomposeWide(c); err != nil {
				return nil, err
			}
			continue
		}
		o := op{out: int32(c.Output), fn: c.Type.Func, nin: int8(len(c.Inputs))}
		for i, in := range c.Inputs {
			o.in[i] = int32(in)
		}
		p.ops = append(p.ops, o)
	}
	for _, ci := range nl.FFs() {
		c := &nl.Cells[ci]
		p.ffs = append(p.ffs, ffInfo{
			cell: ci,
			d:    int32(c.Inputs[0]),
			q:    int32(c.Output),
			init: c.Init,
		})
	}
	p.inputNets = make([]int32, len(nl.Inputs))
	for i, id := range nl.Inputs {
		p.inputNets[i] = int32(id)
	}
	p.outputNets = make([]int32, len(nl.Outputs))
	for i, id := range nl.Outputs {
		p.outputNets[i] = int32(id)
	}
	opByOut := make([]int32, p.nets)
	for i := range p.ops {
		opByOut[p.ops[i].out] = int32(i)
	}
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		if c.Type.IsSequential() {
			continue
		}
		p.combOps = append(p.combOps, opByOut[int32(c.Output)])
	}
	return p, nil
}

// opWidth returns the widest input count the packed engine evaluates
// natively for a function. Associative functions beyond it are decomposed
// by decomposeWide; anything else wider is a malformed cell type.
func opWidth(f netlist.Func) int {
	switch f {
	case netlist.FuncAnd, netlist.FuncOr, netlist.FuncNand, netlist.FuncNor:
		return 4
	case netlist.FuncXor, netlist.FuncXnor:
		return 2
	case netlist.FuncMux2, netlist.FuncAOI21, netlist.FuncOAI21:
		return 3
	case netlist.FuncBuf, netlist.FuncInv:
		return 1
	default:
		return 0
	}
}

// decomposeWide lowers a gate wider than the engine's native width into a
// balanced tree of native ops on synthetic temporary nets: inputs are
// reduced in groups of the base function's width until at most one native
// op's worth remains, and the final op carries the original function so
// inverted forms (NAND/NOR/XNOR) keep their inversion at the root. The
// temporaries live past len(nl.Nets); engines size their net arrays from
// Program.nets, so they need no netlist counterpart.
func (p *Program) decomposeWide(c *netlist.Cell) error {
	var base netlist.Func
	switch c.Type.Func {
	case netlist.FuncAnd, netlist.FuncNand:
		base = netlist.FuncAnd
	case netlist.FuncOr, netlist.FuncNor:
		base = netlist.FuncOr
	case netlist.FuncXor, netlist.FuncXnor:
		base = netlist.FuncXor
	default:
		return fmt.Errorf("sim: cell %q: cannot decompose %d-input %v", c.Name, len(c.Inputs), c.Type.Func)
	}
	width := opWidth(base)
	nets := make([]int32, len(c.Inputs))
	for i, in := range c.Inputs {
		nets[i] = int32(in)
	}
	for len(nets) > width {
		next := nets[:0]
		for i := 0; i < len(nets); i += width {
			j := i + width
			if j > len(nets) {
				j = len(nets)
			}
			if j-i == 1 {
				next = append(next, nets[i])
				continue
			}
			tmp := int32(p.nets)
			p.nets++
			o := op{out: tmp, fn: base, nin: int8(j - i)}
			copy(o.in[:], nets[i:j])
			p.ops = append(p.ops, o)
			next = append(next, tmp)
		}
		nets = next
	}
	o := op{out: int32(c.Output), fn: c.Type.Func, nin: int8(len(nets))}
	copy(o.in[:], nets)
	p.ops = append(p.ops, o)
	return nil
}

// Netlist returns the compiled design.
func (p *Program) Netlist() *netlist.Netlist { return p.nl }

// NumFFs returns the number of flip-flops.
func (p *Program) NumFFs() int { return len(p.ffs) }

// NumInputs returns the number of primary input ports.
func (p *Program) NumInputs() int { return len(p.inputNets) }

// NumOutputs returns the number of primary output ports.
func (p *Program) NumOutputs() int { return len(p.outputNets) }

// resetOutput is the interpreter's output port i before the first Eval: all
// ones if a flip-flop initialised to 1 drives it, else 0. A kernel may hold
// the port in a constant row or, through a buffer, in a Q row.
func (p *Program) resetOutput(i int) uint64 {
	for _, ff := range p.ffs {
		if ff.q == p.outputNets[i] && ff.init {
			return ^uint64(0)
		}
	}
	return 0
}

// FFCell returns the netlist cell ID of flip-flop index i (the campaign's
// injection targets are FF indices; reports map them back to cell names).
func (p *Program) FFCell(i int) netlist.CellID { return p.ffs[i].cell }

// NumCombTargets returns the number of SET-injection targets: one per
// combinational cell, indexed in netlist cell order.
func (p *Program) NumCombTargets() int { return len(p.combOps) }

// InputIndex resolves a primary input port by net name.
func (p *Program) InputIndex(name string) (int, error) {
	id, ok := p.nl.FindNet(name)
	if !ok {
		return 0, fmt.Errorf("sim: no net %q", name)
	}
	for i, n := range p.inputNets {
		if n == int32(id) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sim: net %q is not a primary input", name)
}

// OutputIndex resolves a primary output port by its port name.
func (p *Program) OutputIndex(name string) (int, error) {
	if i, ok := p.nl.FindOutput(name); ok {
		return i, nil
	}
	return 0, fmt.Errorf("sim: no output port %q", name)
}

// InputBusIndices resolves name[0..width-1] to input port indices.
func (p *Program) InputBusIndices(name string, width int) ([]int, error) {
	out := make([]int, width)
	for i := 0; i < width; i++ {
		idx, err := p.InputIndex(fmt.Sprintf("%s[%d]", name, i))
		if err != nil {
			return nil, err
		}
		out[i] = idx
	}
	return out, nil
}

// OutputBusIndices resolves output ports name[0..width-1] to port indices.
func (p *Program) OutputBusIndices(name string, width int) ([]int, error) {
	out := make([]int, width)
	for i := 0; i < width; i++ {
		idx, err := p.OutputIndex(fmt.Sprintf("%s[%d]", name, i))
		if err != nil {
			return nil, err
		}
		out[i] = idx
	}
	return out, nil
}
