package features

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Extractor computes feature vectors for every flip-flop of a netlist.
// Structure analysis happens once in NewExtractor; Extract combines it with
// per-run activity data.
type Extractor struct {
	names  []string
	static []Vector // per flip-flop: every column but the dynamic ones
}

// analysis is NewExtractor's working state: flat tables over the netlist
// and the scratch every cone walk reuses, so the analysis allocates per
// netlist and never per flip-flop.
type analysis struct {
	nl  *netlist.Netlist
	ffs []netlist.CellID

	ffOf    []int32        // cell → flip-flop index, -1 for a combinational cell
	piOf    []int32        // net → primary input index, -1 for a cell-driven net
	readers *graph.Digraph // cell → the cells reading its output, one edge per pin

	// A net (backward walks) or cell (forward walks) has been visited by
	// the walk numbered w when its mark is w.
	netMark  []int32
	cellMark []int32
	stack    []int32

	// The stage graph's predecessor lists, in node order as the backward
	// walks find them. Nodes [0,n) are FFs, then PIs, then POs; an edge
	// crosses one stage of combinational logic.
	pred []int32
}

// NewExtractor analyzes the netlist structure.
func NewExtractor(nl *netlist.Netlist) (*Extractor, error) {
	order, err := nl.CombOrder() // validates
	if err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	a := &analysis{nl: nl, ffs: nl.FFs()}
	n, numPI := len(a.ffs), len(nl.Inputs)
	a.ffOf = filled(len(nl.Cells), -1)
	for i, cid := range a.ffs {
		a.ffOf[cid] = int32(i)
	}
	a.piOf = filled(len(nl.Nets), -1)
	for k, net := range nl.Inputs {
		a.piOf[net] = int32(k)
	}
	pins := 0
	for ci := range nl.Cells {
		pins += len(nl.Cells[ci].Inputs)
	}
	readOff := make([]int32, len(nl.Cells)+1)
	drivers := make([]int32, 0, pins)
	for ci := range nl.Cells {
		for _, in := range nl.Cells[ci].Inputs {
			if drv := nl.Nets[in].Driver; drv >= 0 {
				drivers = append(drivers, int32(drv))
			}
		}
		readOff[ci+1] = int32(len(drivers))
	}
	if a.readers, err = graph.FromPreds(readOff, drivers); err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	a.netMark = filled(len(nl.Nets), -1)
	a.cellMark = filled(len(nl.Cells), -1)

	e := &Extractor{names: make([]string, n), static: make([]Vector, n)}
	depth := a.combDepths(order)
	predOff := make([]int32, n+numPI+len(nl.Outputs)+1)
	for i, cid := range a.ffs {
		cell := &nl.Cells[cid]
		e.names[i] = cell.Name
		v := &e.static[i]
		ffs, pis, consts, cells := a.backwardCone(cell.Inputs[0], int32(i))
		v.FFFanIn, v.ConnFromPI = float64(ffs), float64(pis)
		v.ConnConst, v.CombFanIn = float64(consts), float64(cells)
		predOff[i+1] = int32(len(a.pred))
		ffs, cells = a.forwardCone(cid, int32(i))
		v.FFFanOut, v.CombFanOut = float64(ffs), float64(cells)
		v.DriveStrength = float64(cell.Type.Drive)
		v.CombDepth = float64(a.deepestReader(cid, depth))
	}
	a.buses(e.static)
	// A primary input has no predecessors. A primary output's are what its
	// net's cone holds: the flip-flops one stage before the port (and any
	// input wired through to it, a node nothing below looks at).
	for k := range nl.Inputs {
		predOff[n+k+1] = int32(len(a.pred))
	}
	for port, net := range nl.Outputs {
		a.backwardCone(net, int32(n+numPI+port))
		predOff[n+numPI+port+1] = int32(len(a.pred))
	}
	g, err := graph.FromPreds(predOff, a.pred)
	if err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}

	dist := filled(g.Order(), -1)
	queue := make([]int32, 0, g.Order()) // a search enqueues a node once: never grows
	// PI nodes forward to FFs; PO nodes backward to FFs.
	fromPI := portProximity(g, n, numPI, graph.Forward, dist, queue)
	toPO := portProximity(g, n+numPI, len(nl.Outputs), graph.Backward, dist, queue)
	comp, sccOrder := g.SCC()
	ffsFrom, ffsTo := g.ReachCounts(comp, sccOrder, n)
	for i := range e.static {
		v := &e.static[i]
		for _, node := range g.Succ(i) {
			if int(node) >= n+numPI {
				v.ConnToPO++
			}
		}
		v.ProxPIMax, v.ProxPIAvg, v.ProxPIMin = fromPI[i].stats()
		v.ProxPOMax, v.ProxPOAvg, v.ProxPOMin = toPO[i].stats()
		v.TotalFFsFrom = float64(ffsFrom[i])
		v.TotalFFsTo = float64(ffsTo[i])
		v.FeedbackDep = float64(g.ShortestCycleThrough(i, comp, dist, queue))
		if v.FeedbackDep > 0 {
			v.HasFeedback = 1
		}
	}
	return e, nil
}

func filled(n int, v int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// backwardCone walks from a net backwards through combinational cells,
// stopping at flip-flop outputs, primary inputs and constant drivers, and
// appends the stage-graph node of each flip-flop and input found to a.pred.
// It returns how many of each it found and how many combinational cells it
// crossed. A net is pushed once, so its driver is counted once. walk
// numbers the walk for the marks.
func (a *analysis) backwardCone(start netlist.NetID, walk int32) (ffs, pis, consts, cells int) {
	a.netMark[start] = walk
	stack := append(a.stack[:0], int32(start))
	for len(stack) > 0 {
		net := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pi := a.piOf[net]; pi >= 0 {
			pis++
			a.pred = append(a.pred, int32(len(a.ffs))+pi)
			continue
		}
		drv := a.nl.Nets[net].Driver
		cell := &a.nl.Cells[drv]
		switch {
		case cell.Type.IsSequential():
			ffs++
			a.pred = append(a.pred, a.ffOf[drv])
		case cell.Type.Func == netlist.FuncConst0 || cell.Type.Func == netlist.FuncConst1:
			consts++
		default:
			cells++
			for _, in := range cell.Inputs {
				if a.netMark[in] != walk {
					a.netMark[in] = walk
					stack = append(stack, int32(in))
				}
			}
		}
	}
	a.stack = stack
	return ffs, pis, consts, cells
}

// forwardCone walks from a flip-flop forward through the combinational
// cells its output reaches, stopping at flip-flop D pins, and returns how
// many of each it met. A cell is entered once.
func (a *analysis) forwardCone(start netlist.CellID, walk int32) (ffs, cells int) {
	stack := append(a.stack[:0], int32(start))
	for len(stack) > 0 {
		cell := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, rd := range a.readers.Succ(int(cell)) {
			if a.cellMark[rd] == walk {
				continue
			}
			a.cellMark[rd] = walk
			if a.ffOf[rd] >= 0 {
				ffs++
				continue
			}
			cells++
			stack = append(stack, rd)
		}
	}
	a.stack = stack
	return ffs, cells
}

// combDepths returns, per combinational cell, the longest chain of
// combinational cells that starts with it (flip-flops stay 0). order is the
// netlist's evaluation order: walked backwards, every reader of a cell's
// output is settled before the cell.
func (a *analysis) combDepths(order []int32) []int32 {
	depth := make([]int32, len(a.nl.Cells))
	for k := len(order) - 1; k >= 0; k-- {
		if ci := order[k]; a.ffOf[ci] < 0 {
			depth[ci] = 1 + a.deepestReader(netlist.CellID(ci), depth)
		}
	}
	return depth
}

// deepestReader returns the longest combinational chain reachable forward
// from a cell's output (0 when it only feeds FFs/outputs directly).
func (a *analysis) deepestReader(cell netlist.CellID, depth []int32) int32 {
	best := int32(0)
	for _, rd := range a.readers.Succ(int(cell)) {
		best = max(best, depth[rd])
	}
	return best
}

// buses derives bus membership from instance names of the form
// "scope/name[index]"; a bus needs at least two members.
func (a *analysis) buses(static []Vector) {
	counts := make(map[string]int)
	for _, cid := range a.ffs {
		if base, pos := splitBusName(a.nl.Cells[cid].Name); pos >= 0 {
			counts[base]++
		}
	}
	for i, cid := range a.ffs {
		v := &static[i]
		v.BusPosition = -1
		if base, pos := splitBusName(a.nl.Cells[cid].Name); pos >= 0 && counts[base] >= 2 {
			v.PartOfBus, v.BusPosition, v.BusLength = 1, float64(pos), float64(counts[base])
		}
	}
}

// splitBusName splits "regs/data[7]" into ("regs/data", 7); pos is -1 for
// non-bus names.
func splitBusName(name string) (string, int) {
	if !strings.HasSuffix(name, "]") {
		return name, -1
	}
	open := strings.LastIndexByte(name, '[')
	if open < 0 {
		return name, -1
	}
	idx, err := strconv.Atoi(name[open+1 : len(name)-1])
	if err != nil || idx < 0 {
		return name, -1
	}
	return name[:open], idx
}

// proximity accumulates one node's stage distances from the ports that
// reach it. They are small integers, so the float64 statistics below are
// exact and carry the bits a float64 accumulation would.
type proximity struct {
	min, max, ports int32
	sum             int64
}

// stats returns max, average and min, -1 across the board for a flip-flop
// no port reaches.
func (p proximity) stats() (hi, avg, lo float64) {
	if p.ports == 0 {
		return -1, -1, -1
	}
	return float64(p.max), float64(p.sum) / float64(p.ports), float64(p.min)
}

// portProximity runs one unit-weight search per port node first..first+count
// and aggregates every node's distance from each port that reaches it.
func portProximity(g *graph.Digraph, first, count int, dir graph.Direction, dist, queue []int32) []proximity {
	prox := make([]proximity, g.Order())
	for k := first; k < first+count; k++ {
		queue = g.BFS([]int32{int32(k)}, dir, dist, queue)
		for _, u := range queue {
			p, d := &prox[u], dist[u]
			if p.ports == 0 || d < p.min {
				p.min = d
			}
			p.max = max(p.max, d)
			p.sum += int64(d)
			p.ports++
			dist[u] = -1
		}
	}
	return prox
}

// Extract computes the full feature matrix. act supplies the dynamic
// features and must come from a simulation of the same netlist; it may be
// nil, zeroing the dynamic columns.
func (e *Extractor) Extract(act *sim.Activity) (*Matrix, error) {
	n := len(e.static)
	if act != nil && (len(act.Ones) != n || len(act.Toggles) != n) {
		return nil, fmt.Errorf("features: activity covers %d/%d FFs (ones/toggles), netlist has %d",
			len(act.Ones), len(act.Toggles), n)
	}
	backing := make([]float64, n*NumFeatures)
	rows := make([][]float64, n)
	for i := range rows {
		v := e.static[i]
		if act != nil && act.Cycles > 0 {
			v.At1 = float64(act.Ones[i]) / float64(act.Cycles)
			v.At0 = 1 - v.At1
			v.StateChanges = float64(act.Toggles[i])
		}
		// Capped, so appending to one row cannot write into the next.
		rows[i] = backing[i*NumFeatures : (i+1)*NumFeatures : (i+1)*NumFeatures]
		flat := v.array()
		copy(rows[i], flat[:])
	}
	return &Matrix{InstanceNames: slices.Clone(e.names), Rows: rows}, nil
}
