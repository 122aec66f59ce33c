package netlist

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// NetID identifies a net (a single-driver wire) within a netlist.
type NetID int32

// CellID identifies a cell instance within a netlist.
type CellID int32

// None marks an absent net reference.
const None NetID = -1

// Net is a single-bit wire with exactly one driver: either a primary input
// or the output pin of a cell.
type Net struct {
	Name   string
	Driver CellID // driving cell, or -1 when driven by a primary input
}

// Cell is an instance of a library cell type.
type Cell struct {
	Name   string
	Type   *CellType
	Inputs []NetID // input pins in library order
	Output NetID
	Init   bool // initial/reset state; meaningful only for FuncDFF
}

// Netlist is a flattened gate-level circuit.
//
// Clocking model: a single implicit global clock drives every DFF. Reset is
// performed by loading every DFF's Init value, which matches how the paper's
// testbench initializes the design before stimulus.
type Netlist struct {
	Name    string
	Nets    []Net
	Cells   []Cell
	Inputs  []NetID // primary input nets, in port order
	Outputs []NetID // primary output nets, in port order
	// OutputNames are the port names of Outputs (a net may feed several
	// differently named output ports).
	OutputNames []string

	netByName map[string]NetID
}

// FindOutput resolves an output port by name and returns its position.
func (n *Netlist) FindOutput(name string) (int, bool) {
	for i, on := range n.OutputNames {
		if on == name {
			return i, true
		}
	}
	return 0, false
}

// NewNetlist returns an empty netlist with the given design name.
func NewNetlist(name string) *Netlist {
	return &Netlist{Name: name, netByName: make(map[string]NetID)}
}

// AddNet appends a net with the given name and driver and returns its ID.
// Callers must keep names unique; FindNet resolves them.
func (n *Netlist) AddNet(name string, driver CellID) (NetID, error) {
	if _, dup := n.netByName[name]; dup {
		return None, fmt.Errorf("netlist: duplicate net name %q", name)
	}
	id := NetID(len(n.Nets))
	n.Nets = append(n.Nets, Net{Name: name, Driver: driver})
	n.netByName[name] = id
	return id, nil
}

// FindNet resolves a net by name.
func (n *Netlist) FindNet(name string) (NetID, bool) {
	id, ok := n.netByName[name]
	return id, ok
}

// FFs returns the IDs of all sequential cells in instantiation order.
func (n *Netlist) FFs() []CellID {
	out := make([]CellID, 0, 64)
	for i := range n.Cells {
		if n.Cells[i].Type.IsSequential() {
			out = append(out, CellID(i))
		}
	}
	return out
}

// Stats summarizes a netlist for reports.
type Stats struct {
	Nets      int
	Cells     int
	FlipFlops int
	Combo     int
	Inputs    int
	Outputs   int
	MaxLevel  int // combinational depth (levels of logic)
}

// Stats computes summary statistics. The combinational depth is 0 for purely
// sequential netlists and -1 if the netlist has combinational cycles.
func (n *Netlist) Stats() Stats {
	s := Stats{
		Nets:    len(n.Nets),
		Cells:   len(n.Cells),
		Inputs:  len(n.Inputs),
		Outputs: len(n.Outputs),
	}
	for i := range n.Cells {
		if n.Cells[i].Type.IsSequential() {
			s.FlipFlops++
		} else {
			s.Combo++
		}
	}
	levels, err := n.CombLevels()
	if err != nil {
		s.MaxLevel = -1
		return s
	}
	for _, l := range levels {
		if l > s.MaxLevel {
			s.MaxLevel = l
		}
	}
	return s
}

// combGraph builds the cell-level dependency graph restricted to
// combinational evaluation order: an edge u→v means combinational cell v
// reads the output of cell u. Flip-flop outputs and primary inputs are
// sources (no incoming edges in this graph), so a valid netlist yields a DAG.
// Net references must be in range (CombOrder checks them first).
func (n *Netlist) combGraph() *graph.Digraph {
	pins := 0
	for ci := range n.Cells {
		pins += len(n.Cells[ci].Inputs)
	}
	off := make([]int32, len(n.Cells)+1)
	pred := make([]int32, 0, pins)
	for ci := range n.Cells {
		c := &n.Cells[ci]
		for _, in := range c.Inputs {
			// A flip-flop's state update is not part of combinational
			// order, and primary inputs and flip-flop outputs are sources
			// for this cycle.
			drv := n.Nets[in].Driver
			if !c.Type.IsSequential() && drv >= 0 && !n.Cells[drv].Type.IsSequential() {
				pred = append(pred, int32(drv))
			}
		}
		off[ci+1] = int32(len(pred))
	}
	// Error impossible: off partitions pred and every driver indexes n.Cells.
	g, _ := graph.FromPreds(off, pred)
	return g
}

// CombLevels returns, for each cell, its combinational logic level (0 for
// flip-flops and cells fed only by FFs/primary inputs). It returns
// graph.ErrCycle when combinational feedback exists.
func (n *Netlist) CombLevels() ([]int, error) {
	lv, err := n.combGraph().Levels()
	if err != nil {
		return nil, fmt.Errorf("netlist %q: %w", n.Name, err)
	}
	return lv, nil
}

// Validation errors.
var (
	ErrUndriven  = errors.New("netlist: undriven net")
	ErrBadPinout = errors.New("netlist: pin count mismatch")
	ErrBadRef    = errors.New("netlist: reference out of range")
)

// Validate checks structural invariants: every net reference is in range,
// pin counts match cell types, every net has a consistent driver record, and
// the combinational subcircuit is acyclic.
func (n *Netlist) Validate() error {
	_, err := n.CombOrder()
	return err
}

// CombOrder is Validate for a caller that goes on to walk the logic: the
// one combinational graph that proves the netlist acyclic also yields the
// cells in evaluation order (every combinational cell after the cells whose
// outputs it reads; ties in cell order), which is returned.
func (n *Netlist) CombOrder() ([]int32, error) {
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if len(c.Inputs) != c.Type.Inputs {
			return nil, fmt.Errorf("%w: cell %q (%s) has %d inputs, wants %d",
				ErrBadPinout, c.Name, c.Type.Name, len(c.Inputs), c.Type.Inputs)
		}
		for _, in := range c.Inputs {
			if in < 0 || int(in) >= len(n.Nets) {
				return nil, fmt.Errorf("%w: cell %q input net %d", ErrBadRef, c.Name, in)
			}
		}
		if c.Output < 0 || int(c.Output) >= len(n.Nets) {
			return nil, fmt.Errorf("%w: cell %q output net %d", ErrBadRef, c.Name, c.Output)
		}
		if n.Nets[c.Output].Driver != CellID(ci) {
			return nil, fmt.Errorf("netlist: net %q driver mismatch: cell %q claims it",
				n.Nets[c.Output].Name, c.Name)
		}
	}
	driven := make([]bool, len(n.Nets))
	for _, id := range n.Inputs {
		if id < 0 || int(id) >= len(n.Nets) {
			return nil, fmt.Errorf("%w: primary input net %d", ErrBadRef, id)
		}
		driven[id] = true
	}
	for ci := range n.Cells {
		driven[n.Cells[ci].Output] = true
	}
	for i, d := range driven {
		if !d {
			return nil, fmt.Errorf("%w: %q", ErrUndriven, n.Nets[i].Name)
		}
	}
	if len(n.OutputNames) != len(n.Outputs) {
		return nil, fmt.Errorf("netlist: %d output names for %d outputs", len(n.OutputNames), len(n.Outputs))
	}
	for _, id := range n.Outputs {
		if id < 0 || int(id) >= len(n.Nets) {
			return nil, fmt.Errorf("%w: primary output net %d", ErrBadRef, id)
		}
	}
	order, err := n.combGraph().TopoSort()
	if err != nil {
		return nil, fmt.Errorf("netlist %q: %w", n.Name, err)
	}
	return order, nil
}
