package netlist

import (
	"fmt"
	"strings"
)

// Builder incrementally constructs a valid netlist. It keeps a sticky error:
// the first failure is recorded and every later call becomes a no-op, so
// generator code can compose gates without per-call error handling and check
// Finish once (the "errWriter" pattern from Effective Go).
//
// Gates created through the builder always use the X1 drive variant; the
// synthesis pass in internal/circuit retypes cells to stronger variants.
type Builder struct {
	lib      *Library
	nl       *Netlist
	prefix   string
	auto     int
	err      error
	const0   NetID
	const1   NetID
	pendingD int // DFFDecl flip-flops whose D pin is not wired yet
	ffCount  int
}

// FFCount returns the number of flip-flops instantiated so far. Generators
// use it to size padding structures to an exact flip-flop budget.
func (b *Builder) FFCount() int { return b.ffCount }

// NewBuilder returns a builder for a design with the given name, using the
// built-in standard-cell library.
func NewBuilder(design string) *Builder {
	return &Builder{lib: StdLib(), nl: NewNetlist(design), const0: None, const1: None}
}

func (b *Builder) fail(format string, args ...interface{}) NetID {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return None
}

// Scope pushes a hierarchical name prefix ("txfifo") and returns a function
// that pops it. Instance and net names created inside the scope are prefixed
// with "txfifo/".
func (b *Builder) Scope(name string) func() {
	old := b.prefix
	b.prefix = b.prefix + name + "/"
	return func() { b.prefix = old }
}

func (b *Builder) qualify(name string) string { return b.prefix + name }

func (b *Builder) autoName(kind string) string {
	b.auto++
	return fmt.Sprintf("%s%s_%d", b.prefix, kind, b.auto)
}

// Input declares a primary input and returns its net.
func (b *Builder) Input(name string) NetID {
	if b.err != nil {
		return None
	}
	id, err := b.nl.AddNet(b.qualify(name), -1)
	if err != nil {
		return b.fail("builder: %w", err)
	}
	b.nl.Inputs = append(b.nl.Inputs, id)
	return id
}

// InputBus declares width primary inputs named name[0..width-1], LSB first.
func (b *Builder) InputBus(name string, width int) []NetID {
	out := make([]NetID, width)
	for i := 0; i < width; i++ {
		out[i] = b.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return out
}

// Output declares net as a primary output port with the given port name.
func (b *Builder) Output(name string, net NetID) {
	if b.err != nil {
		return
	}
	if net == None {
		b.fail("builder: output %q wired to no net", name)
		return
	}
	b.nl.Outputs = append(b.nl.Outputs, net)
	b.nl.OutputNames = append(b.nl.OutputNames, b.qualify(name))
}

// OutputBus declares each net of a bus as a primary output, LSB first.
func (b *Builder) OutputBus(name string, nets []NetID) {
	for i, n := range nets {
		b.Output(fmt.Sprintf("%s[%d]", name, i), n)
	}
}

// cell instantiates a cell of the given type name with auto-generated
// instance and output-net names.
func (b *Builder) cell(typeName, kind string, inputs []NetID, init bool) NetID {
	if b.err != nil {
		return None
	}
	for _, in := range inputs {
		if in == None {
			return b.fail("builder: %s gate wired to missing net", kind)
		}
	}
	ct, err := b.lib.Lookup(typeName)
	if err != nil {
		return b.fail("builder: %w", err)
	}
	if len(inputs) != ct.Inputs {
		return b.fail("builder: %s expects %d pins, got %d", typeName, ct.Inputs, len(inputs))
	}
	instName := b.autoName(kind)
	cid := CellID(len(b.nl.Cells))
	out, err := b.nl.AddNet(instName+"_o", cid)
	if err != nil {
		return b.fail("builder: %w", err)
	}
	ins := make([]NetID, len(inputs))
	copy(ins, inputs)
	b.nl.Cells = append(b.nl.Cells, Cell{
		Name:   instName,
		Type:   ct,
		Inputs: ins,
		Output: out,
		Init:   init,
	})
	return out
}

// Const0 returns the output of a (lazily created) TIEL cell.
func (b *Builder) Const0() NetID {
	if b.const0 == None {
		old := b.prefix
		b.prefix = ""
		b.const0 = b.cell("TIEL", "tiel", nil, false)
		b.prefix = old
	}
	return b.const0
}

// Const1 returns the output of a (lazily created) TIEH cell.
func (b *Builder) Const1() NetID {
	if b.const1 == None {
		old := b.prefix
		b.prefix = ""
		b.const1 = b.cell("TIEH", "tieh", nil, false)
		b.prefix = old
	}
	return b.const1
}

// Not returns !a.
func (b *Builder) Not(a NetID) NetID { return b.cell("INV_X1", "inv", []NetID{a}, false) }

// nary folds ins into a tree of up-to-4-input gates of the given function.
func (b *Builder) nary(f Func, kind string, ins []NetID) NetID {
	switch len(ins) {
	case 0:
		return b.fail("builder: %s with no inputs", kind)
	case 1:
		return ins[0]
	}
	work := make([]NetID, len(ins))
	copy(work, ins)
	for len(work) > 1 {
		next := work[:0:0]
		for i := 0; i < len(work); i += 4 {
			j := i + 4
			if j > len(work) {
				j = i + (len(work) - i)
			}
			chunk := work[i:j]
			if len(chunk) == 1 {
				next = append(next, chunk[0])
				continue
			}
			name := fmt.Sprintf("%s%d_X1", strings.ToUpper(f.String()), len(chunk))
			next = append(next, b.cell(name, kind, chunk, false))
		}
		work = next
	}
	return work[0]
}

// And returns the conjunction of the inputs, building a gate tree as needed.
func (b *Builder) And(ins ...NetID) NetID { return b.nary(FuncAnd, "and", ins) }

// Or returns the disjunction of the inputs, building a gate tree as needed.
func (b *Builder) Or(ins ...NetID) NetID { return b.nary(FuncOr, "or", ins) }

// Xor returns a^b.
func (b *Builder) Xor(a, x NetID) NetID { return b.cell("XOR2_X1", "xor", []NetID{a, x}, false) }

// Xnor returns !(a^b).
func (b *Builder) Xnor(a, x NetID) NetID { return b.cell("XNOR2_X1", "xnor", []NetID{a, x}, false) }

// Mux returns sel ? d1 : d0.
func (b *Builder) Mux(d0, d1, sel NetID) NetID {
	return b.cell("MUX2_X1", "mux", []NetID{d0, d1, sel}, false)
}

// AOI21 returns !((a&x)|c).
func (b *Builder) AOI21(a, x, c NetID) NetID {
	return b.cell("AOI21_X1", "aoi", []NetID{a, x, c}, false)
}

// OAI21 returns !((a|x)&c).
func (b *Builder) OAI21(a, x, c NetID) NetID {
	return b.cell("OAI21_X1", "oai", []NetID{a, x, c}, false)
}

// DFF instantiates a named flip-flop and returns its Q net. The name is
// qualified by the current scope and must be unique; register buses should
// use names like "state[3]" so that bus-detection features can group them.
func (b *Builder) DFF(name string, d NetID, init bool) NetID {
	if b.err != nil {
		return None
	}
	if d == None {
		return b.fail("builder: DFF %q wired to missing net", name)
	}
	ct, err := b.lib.Lookup("DFF_X1")
	if err != nil {
		return b.fail("builder: %w", err)
	}
	instName := b.qualify(name)
	cid := CellID(len(b.nl.Cells))
	out, err := b.nl.AddNet(instName+"_q", cid)
	if err != nil {
		return b.fail("builder: %w", err)
	}
	b.nl.Cells = append(b.nl.Cells, Cell{
		Name:   instName,
		Type:   ct,
		Inputs: []NetID{d},
		Output: out,
		Init:   init,
	})
	b.ffCount++
	return out
}

// DFFDecl declares a flip-flop whose D input is wired later, enabling
// feedback through combinational logic that reads Q (counters, FSM state,
// enable registers). It returns the Q net and a function that must be called
// exactly once to wire the D pin; Finish fails if any declared FF was left
// unwired.
func (b *Builder) DFFDecl(name string, init bool) (NetID, func(NetID)) {
	if b.err != nil {
		return None, func(NetID) {}
	}
	ct, err := b.lib.Lookup("DFF_X1")
	if err != nil {
		b.fail("builder: %w", err)
		return None, func(NetID) {}
	}
	instName := b.qualify(name)
	cid := CellID(len(b.nl.Cells))
	out, err := b.nl.AddNet(instName+"_q", cid)
	if err != nil {
		b.fail("builder: %w", err)
		return None, func(NetID) {}
	}
	b.nl.Cells = append(b.nl.Cells, Cell{
		Name:   instName,
		Type:   ct,
		Inputs: []NetID{None}, // wired by the returned closure
		Output: out,
		Init:   init,
	})
	b.ffCount++
	b.pendingD++
	wired := false
	setD := func(d NetID) {
		if b.err != nil {
			return
		}
		if wired {
			b.fail("builder: DFF %q D pin wired twice", instName)
			return
		}
		if d == None {
			b.fail("builder: DFF %q wired to missing net", instName)
			return
		}
		wired = true
		b.pendingD--
		b.nl.Cells[cid].Inputs[0] = d
	}
	return out, setD
}

// Placeholder reserves a net that will be driven by a DFF created later,
// enabling feedback loops (e.g. FSM state registers). Wire it with Close.
type Placeholder struct {
	b   *Builder
	net NetID
}

// NewPlaceholder creates a forward-referenced net. It is implemented as a
// BUF cell whose input is patched by Close.
func (b *Builder) NewPlaceholder() *Placeholder {
	if b.err != nil {
		return &Placeholder{b: b, net: None}
	}
	// Create the buf with a temporary self-input; Close rewires pin 0.
	ct, err := b.lib.Lookup("BUF_X1")
	if err != nil {
		b.fail("builder: %w", err)
		return &Placeholder{b: b, net: None}
	}
	instName := b.autoName("fwd")
	cid := CellID(len(b.nl.Cells))
	out, err := b.nl.AddNet(instName+"_o", cid)
	if err != nil {
		b.fail("builder: %w", err)
		return &Placeholder{b: b, net: None}
	}
	b.nl.Cells = append(b.nl.Cells, Cell{
		Name:   instName,
		Type:   ct,
		Inputs: []NetID{out}, // temporarily self-driven; must be Closed
		Output: out,
	})
	return &Placeholder{b: b, net: out}
}

// Net returns the forward-referenced net.
func (p *Placeholder) Net() NetID { return p.net }

// Close wires the placeholder to its real source net.
func (p *Placeholder) Close(src NetID) {
	if p.b.err != nil || p.net == None {
		return
	}
	if src == None {
		p.b.fail("builder: placeholder closed with missing net")
		return
	}
	drv := p.b.nl.Nets[p.net].Driver
	p.b.nl.Cells[drv].Inputs[0] = src
}

// Finish validates and returns the constructed netlist. The builder must not
// be reused afterwards.
func (b *Builder) Finish() (*Netlist, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.pendingD != 0 {
		return nil, fmt.Errorf("builder: %d declared flip-flops left unwired", b.pendingD)
	}
	// Unclosed placeholders remain self-driven and surface as cycles.
	if err := b.nl.Validate(); err != nil {
		return nil, fmt.Errorf("builder: %w", err)
	}
	return b.nl, nil
}
