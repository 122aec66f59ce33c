package features_test

import (
	"container/heap"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// This file keeps the extractor the feature layer shipped with through
// PR 17 — Go maps per cone walk, an adjacency-list stage graph grown one
// append per edge, container/heap Dijkstra per port, a breadth-first
// reachability walk per flip-flop per direction — verbatim, as the
// reference the production extractor must equal bit for bit. It shares no
// code with internal/features or internal/graph.

// ---- the adjacency-list digraph the reference runs on ----------------------

type refDigraph struct {
	succ [][]int32
	pred [][]int32
}

func newRefDigraph(n int) *refDigraph {
	return &refDigraph{succ: make([][]int32, n), pred: make([][]int32, n)}
}

func (g *refDigraph) order() int { return len(g.succ) }

func (g *refDigraph) addEdge(u, v int) error {
	if u < 0 || u >= len(g.succ) || v < 0 || v >= len(g.succ) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.succ))
	}
	g.succ[u] = append(g.succ[u], int32(v))
	g.pred[v] = append(g.pred[v], int32(u))
	return nil
}

type refDirection int

const (
	refForward refDirection = iota + 1
	refBackward
)

func (g *refDigraph) adj(d refDirection) [][]int32 {
	if d == refBackward {
		return g.pred
	}
	return g.succ
}

// reachable returns the set of nodes reachable from start (excluding start
// itself unless it lies on a cycle back to itself) following dir.
func (g *refDigraph) reachable(start int, dir refDirection) []int {
	seen := make([]bool, g.order())
	adj := g.adj(dir)
	queue := []int32{int32(start)}
	var out []int
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				out = append(out, int(v))
				queue = append(queue, v)
			}
		}
	}
	return out
}

// shortestCycleThrough returns the length (in edges) of the shortest directed
// cycle passing through node v, or -1 if v lies on no cycle. A self-loop has
// length 1.
func (g *refDigraph) shortestCycleThrough(v int) int {
	dist := make([]int, g.order())
	for i := range dist {
		dist[i] = -1
	}
	var queue []int32
	for _, s := range g.succ[v] {
		if int(s) == v {
			return 1
		}
		if dist[s] == -1 {
			dist[s] = 1
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.succ[u] {
			if int(w) == v {
				return dist[u] + 1
			}
			if dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return -1
}

type refWeightFunc func(u, v int) float64

func refUnitWeight(_, _ int) float64 { return 1 }

var refInf = math.Inf(1)

type refHeapItem struct {
	node int32
	dist float64
}

type refDistHeap []refHeapItem

func (h refDistHeap) Len() int            { return len(h) }
func (h refDistHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refDistHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refDistHeap) Push(x interface{}) { *h = append(*h, x.(refHeapItem)) }
func (h *refDistHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// dijkstra computes shortest path distances from sources following dir,
// using w for edge weights. Unreachable nodes receive refInf.
func (g *refDigraph) dijkstra(sources []int, dir refDirection, w refWeightFunc) []float64 {
	dist := make([]float64, g.order())
	for i := range dist {
		dist[i] = refInf
	}
	h := make(refDistHeap, 0, len(sources))
	for _, s := range sources {
		if s < 0 || s >= g.order() {
			continue
		}
		if dist[s] > 0 {
			dist[s] = 0
			h = append(h, refHeapItem{node: int32(s)})
		}
	}
	heap.Init(&h)
	adj := g.adj(dir)
	for h.Len() > 0 {
		it := heap.Pop(&h).(refHeapItem)
		u := it.node
		if it.dist > dist[u] {
			continue // stale entry
		}
		for _, v := range adj[u] {
			var ew float64
			if dir == refBackward {
				ew = w(int(v), int(u))
			} else {
				ew = w(int(u), int(v))
			}
			nd := dist[u] + ew
			if nd < dist[v] {
				dist[v] = nd
				heap.Push(&h, refHeapItem{node: v, dist: nd})
			}
		}
	}
	return dist
}

// ---- the reference extractor ------------------------------------------------

// refCone is the result of walking the combinational logic attached to one
// flip-flop pin: which sequential/port elements terminate the walk and how
// much logic lies in between.
type refCone struct {
	ffs     []int   // FF indices at the cone frontier
	piNets  []int32 // distinct primary input nets reached (backward cones)
	poPorts []int32 // distinct primary output ports reached (forward cones)
	consts  int     // constant driver cells reached
	cells   int     // combinational cells traversed
}

type refExtractor struct {
	nl    *netlist.Netlist
	ffs   []netlist.CellID
	ffIdx map[netlist.CellID]int

	readers  [][]int32 // net → cell IDs reading it
	outPorts [][]int32 // net → primary output port indices
	isPI     []bool    // net → driven by primary input

	inCones  []refCone
	outCones []refCone

	// ffGraph is the FF-stage graph: nodes [0,n) are FFs, then PIs, then
	// POs. Edges: PI→FF, FF→FF, FF→PO, each crossing one stage.
	ffGraph *refDigraph
	numPI   int
	numPO   int

	depthMemo []int32 // net → longest comb chain forward (-1 unknown)
}

func newRefExtractor(nl *netlist.Netlist) (*refExtractor, error) {
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	e := &refExtractor{nl: nl, ffs: nl.FFs(), numPI: len(nl.Inputs), numPO: len(nl.Outputs)}
	e.ffIdx = make(map[netlist.CellID]int, len(e.ffs))
	for i, cid := range e.ffs {
		e.ffIdx[cid] = i
	}
	e.readers = make([][]int32, len(nl.Nets))
	for ci := range nl.Cells {
		for _, in := range nl.Cells[ci].Inputs {
			e.readers[in] = append(e.readers[in], int32(ci))
		}
	}
	e.outPorts = make([][]int32, len(nl.Nets))
	for pi, net := range nl.Outputs {
		e.outPorts[net] = append(e.outPorts[net], int32(pi))
	}
	e.isPI = make([]bool, len(nl.Nets))
	for _, net := range nl.Inputs {
		e.isPI[net] = true
	}

	e.inCones = make([]refCone, len(e.ffs))
	e.outCones = make([]refCone, len(e.ffs))
	for i, cid := range e.ffs {
		e.inCones[i] = e.backwardCone(nl.Cells[cid].Inputs[0])
		e.outCones[i] = e.forwardCone(nl.Cells[cid].Output)
	}

	n := len(e.ffs)
	e.ffGraph = newRefDigraph(n + e.numPI + e.numPO)
	piNode := make(map[netlist.NetID]int, e.numPI)
	for k, net := range nl.Inputs {
		piNode[net] = n + k
	}
	for i := range e.ffs {
		for _, src := range e.inCones[i].ffs {
			if err := e.ffGraph.addEdge(src, i); err != nil {
				return nil, fmt.Errorf("features: %w", err)
			}
		}
		for _, piNet := range e.inCones[i].piNets {
			if err := e.ffGraph.addEdge(piNode[netlist.NetID(piNet)], i); err != nil {
				return nil, fmt.Errorf("features: %w", err)
			}
		}
		for _, port := range e.outCones[i].poPorts {
			if err := e.ffGraph.addEdge(i, n+e.numPI+int(port)); err != nil {
				return nil, fmt.Errorf("features: %w", err)
			}
		}
	}
	e.depthMemo = make([]int32, len(nl.Nets))
	for i := range e.depthMemo {
		e.depthMemo[i] = -1
	}
	return e, nil
}

// backwardCone walks from a net backwards through combinational cells,
// stopping at flip-flop outputs, primary inputs and constant drivers.
func (e *refExtractor) backwardCone(start netlist.NetID) refCone {
	var c refCone
	seenNet := map[netlist.NetID]bool{start: true}
	seenFF := map[int]bool{}
	stack := []netlist.NetID{start}
	for len(stack) > 0 {
		net := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.isPI[net] {
			c.piNets = append(c.piNets, int32(net))
			continue
		}
		drv := e.nl.Nets[net].Driver
		cell := &e.nl.Cells[drv]
		switch {
		case cell.Type.IsSequential():
			if idx := e.ffIdx[drv]; !seenFF[idx] {
				seenFF[idx] = true
				c.ffs = append(c.ffs, idx)
			}
		case cell.Type.Func == netlist.FuncConst0 || cell.Type.Func == netlist.FuncConst1:
			c.consts++
		default:
			c.cells++
			for _, in := range cell.Inputs {
				if !seenNet[in] {
					seenNet[in] = true
					stack = append(stack, in)
				}
			}
		}
	}
	return c
}

// forwardCone walks from a net forward through combinational cells,
// stopping at flip-flop D pins and collecting primary output ports.
func (e *refExtractor) forwardCone(start netlist.NetID) refCone {
	var c refCone
	seenNet := map[netlist.NetID]bool{start: true}
	seenFF := map[int]bool{}
	seenCell := map[int32]bool{}
	seenPO := map[int32]bool{}
	stack := []netlist.NetID{start}
	for len(stack) > 0 {
		net := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, port := range e.outPorts[net] {
			if !seenPO[port] {
				seenPO[port] = true
				c.poPorts = append(c.poPorts, port)
			}
		}
		for _, rd := range e.readers[net] {
			cell := &e.nl.Cells[rd]
			if cell.Type.IsSequential() {
				if idx := e.ffIdx[netlist.CellID(rd)]; !seenFF[idx] {
					seenFF[idx] = true
					c.ffs = append(c.ffs, idx)
				}
				continue
			}
			if seenCell[rd] {
				continue
			}
			seenCell[rd] = true
			c.cells++
			if out := cell.Output; !seenNet[out] {
				seenNet[out] = true
				stack = append(stack, out)
			}
		}
	}
	return c
}

// combDepthFrom returns the longest chain of combinational cells reachable
// forward from net (0 when the net only feeds FFs/outputs directly).
func (e *refExtractor) combDepthFrom(net netlist.NetID) int {
	if d := e.depthMemo[net]; d >= 0 {
		return int(d)
	}
	best := 0
	for _, rd := range e.readers[net] {
		cell := &e.nl.Cells[rd]
		if cell.Type.IsSequential() {
			continue
		}
		if d := 1 + e.combDepthFrom(cell.Output); d > best {
			best = d
		}
	}
	e.depthMemo[net] = int32(best)
	return best
}

type refBusInfo struct {
	member bool
	pos    int
	length int
}

func (e *refExtractor) busTable() []refBusInfo {
	type entry struct {
		base string
		pos  int
	}
	entries := make([]entry, len(e.ffs))
	counts := make(map[string]int)
	for i, cid := range e.ffs {
		base, pos := refSplitBusName(e.nl.Cells[cid].Name)
		entries[i] = entry{base: base, pos: pos}
		if pos >= 0 {
			counts[base]++
		}
	}
	out := make([]refBusInfo, len(e.ffs))
	for i, en := range entries {
		if en.pos >= 0 && counts[en.base] >= 2 {
			out[i] = refBusInfo{member: true, pos: en.pos, length: counts[en.base]}
		} else {
			out[i] = refBusInfo{member: false, pos: -1, length: 0}
		}
	}
	return out
}

func refSplitBusName(name string) (string, int) {
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

type refProximity struct {
	min, max, avg []float64
}

func (e *refExtractor) portProximity(first, count int, dir refDirection) refProximity {
	n := len(e.ffs)
	p := refProximity{
		min: make([]float64, n),
		max: make([]float64, n),
		avg: make([]float64, n),
	}
	sum := make([]float64, n)
	cnt := make([]int, n)
	for i := 0; i < n; i++ {
		p.min[i] = -1
		p.max[i] = -1
		p.avg[i] = -1
	}
	for k := 0; k < count; k++ {
		dist := e.ffGraph.dijkstra([]int{first + k}, dir, refUnitWeight)
		for f := 0; f < n; f++ {
			v := dist[f]
			if v == refInf {
				continue
			}
			if cnt[f] == 0 || v < p.min[f] {
				p.min[f] = v
			}
			if cnt[f] == 0 || v > p.max[f] {
				p.max[f] = v
			}
			sum[f] += v
			cnt[f]++
		}
	}
	for f := 0; f < n; f++ {
		if cnt[f] > 0 {
			p.avg[f] = sum[f] / float64(cnt[f])
		}
	}
	return p
}

func (e *refExtractor) extract(act *sim.Activity) (*features.Matrix, error) {
	n := len(e.ffs)
	if act != nil && len(act.Ones) != n {
		return nil, fmt.Errorf("features: activity covers %d FFs, netlist has %d", len(act.Ones), n)
	}
	buses := e.busTable()
	// PI nodes forward to FFs; PO nodes backward to FFs.
	proxPI := e.portProximity(n, e.numPI, refForward)
	proxPO := e.portProximity(n+e.numPI, e.numPO, refBackward)

	rows := make([][]float64, n)
	names := make([]string, n)
	for i, cid := range e.ffs {
		cell := &e.nl.Cells[cid]
		names[i] = cell.Name
		in := e.inCones[i]
		out := e.outCones[i]

		fbDepth := e.ffGraph.shortestCycleThrough(i)
		hasFB := 0.0
		if fbDepth > 0 {
			hasFB = 1.0
		}

		v := features.Vector{
			FFFanIn:       float64(len(in.ffs)),
			FFFanOut:      float64(len(out.ffs)),
			TotalFFsFrom:  float64(e.countReachableFFs(i, refBackward)),
			TotalFFsTo:    float64(e.countReachableFFs(i, refForward)),
			ConnFromPI:    float64(len(in.piNets)),
			ConnToPO:      float64(len(out.poPorts)),
			ProxPIMax:     proxPI.max[i],
			ProxPIAvg:     proxPI.avg[i],
			ProxPIMin:     proxPI.min[i],
			ProxPOMax:     proxPO.max[i],
			ProxPOAvg:     proxPO.avg[i],
			ProxPOMin:     proxPO.min[i],
			ConnConst:     float64(in.consts),
			HasFeedback:   hasFB,
			FeedbackDep:   float64(fbDepth),
			DriveStrength: float64(cell.Type.Drive),
			CombFanIn:     float64(in.cells),
			CombFanOut:    float64(out.cells),
			CombDepth:     float64(e.combDepthFrom(cell.Output)),
		}
		b := buses[i]
		if b.member {
			v.PartOfBus = 1
			v.BusPosition = float64(b.pos)
			v.BusLength = float64(b.length)
		} else {
			v.BusPosition = -1
		}
		if act != nil && act.Cycles > 0 {
			cyc := float64(act.Cycles)
			v.At1 = float64(act.Ones[i]) / cyc
			v.At0 = 1 - v.At1
			v.StateChanges = float64(act.Toggles[i])
		}
		rows[i] = v.Slice()
	}
	return &features.Matrix{InstanceNames: names, Rows: rows}, nil
}

// countReachableFFs counts flip-flop nodes reachable from FF i in the stage
// graph (excluding port nodes, and excluding i itself unless it sits on a
// cycle).
func (e *refExtractor) countReachableFFs(i int, dir refDirection) int {
	n := len(e.ffs)
	count := 0
	for _, u := range e.ffGraph.reachable(i, dir) {
		if u < n {
			count++
		}
	}
	return count
}

// ---- the differential test --------------------------------------------------

// referenceExtract runs the reference extractor end to end.
func referenceExtract(nl *netlist.Netlist, act *sim.Activity) (*features.Matrix, error) {
	e, err := newRefExtractor(nl)
	if err != nil {
		return nil, err
	}
	return e.extract(act)
}

// diffMatrices describes the first difference between two matrices, bit for
// bit (a NaN equals only the same NaN, -0 differs from +0), or returns "".
func diffMatrices(got, want *features.Matrix) string {
	if len(got.Rows) != len(want.Rows) || len(got.InstanceNames) != len(want.InstanceNames) {
		return fmt.Sprintf("%d rows / %d names, reference has %d / %d",
			len(got.Rows), len(got.InstanceNames), len(want.Rows), len(want.InstanceNames))
	}
	names := features.Names()
	for i := range want.Rows {
		if got.InstanceNames[i] != want.InstanceNames[i] {
			return fmt.Sprintf("row %d is %q, reference has %q", i, got.InstanceNames[i], want.InstanceNames[i])
		}
		if len(got.Rows[i]) != len(want.Rows[i]) {
			return fmt.Sprintf("row %d has %d columns, reference has %d", i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j, w := range want.Rows[i] {
			if g := got.Rows[i][j]; math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("%s of %s (row %d) = %v, reference has %v", names[j], want.InstanceNames[i], i, g, w)
			}
		}
	}
	return ""
}

// checkAgainstReference extracts nl's matrix with the production extractor
// and with the reference, with and (when act is non-nil) without activity.
func checkAgainstReference(t *testing.T, nl *netlist.Netlist, act *sim.Activity) {
	t.Helper()
	ex, err := features.NewExtractor(nl)
	if err != nil {
		t.Fatalf("NewExtractor: %v", err)
	}
	acts := []*sim.Activity{nil}
	if act != nil {
		// The same extractor serves both: Extract must not leave state
		// behind that a second call reads.
		acts = []*sim.Activity{act, nil, act}
	}
	for _, a := range acts {
		got, err := ex.Extract(a)
		if err != nil {
			t.Fatalf("Extract: %v", err)
		}
		want, err := referenceExtract(nl, a)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if d := diffMatrices(got, want); d != "" {
			t.Fatalf("activity=%v: %s", a != nil, d)
		}
	}
}

// TestExtractMatchesReference pins every feature matrix the repository
// produces to the reference extractor, bit for bit: the full MAC, every
// corpus scenario at both scales, the random family over five seeds and a
// TMR-rewritten alupipe (the hardening path), with and without activity.
func TestExtractMatchesReference(t *testing.T) {
	materialize := func(t *testing.T, sc corpus.Scenario, scale corpus.Scale, seed int64, rewrite func(*netlist.Netlist) error) {
		t.Helper()
		m, err := sc.MaterializeWith(scale, seed, rewrite)
		if err != nil {
			t.Fatalf("Materialize: %v", err)
		}
		if d := diffMatrices(m.Features, mustReference(t, m.Netlist, m.Activity)); d != "" {
			t.Fatalf("Materialized.Features: %s", d)
		}
		checkAgainstReference(t, m.Netlist, m.Activity)
	}
	for _, sc := range corpus.List() {
		for _, scale := range []corpus.Scale{corpus.ScaleSmall, corpus.ScaleDefault} {
			t.Run(sc.ID()+"/"+scale.String(), func(t *testing.T) {
				materialize(t, sc, scale, 1, nil)
			})
		}
	}
	random, err := corpus.Find("random")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("random/seed%d", seed), func(t *testing.T) {
			materialize(t, random, corpus.ScaleDefault, seed, nil)
		})
	}
	t.Run("alupipe/tmr", func(t *testing.T) {
		alu, err := corpus.Find("alupipe")
		if err != nil {
			t.Fatal(err)
		}
		materialize(t, alu, corpus.ScaleDefault, 1, func(nl *netlist.Netlist) error {
			// Every third flip-flop: voters and replicas beside untouched
			// registers, so hardened and plain cones meet.
			var harden []int
			for i := 0; i < len(nl.FFs()); i += 3 {
				harden = append(harden, i)
			}
			return circuit.ApplyTMR(nl, harden)
		})
	})
}

func mustReference(t *testing.T, nl *netlist.Netlist, act *sim.Activity) *features.Matrix {
	t.Helper()
	m, err := referenceExtract(nl, act)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return m
}
