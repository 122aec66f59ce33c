package graph

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrCycle is returned by TopoSort when the graph contains a directed cycle.
var ErrCycle = errors.New("graph: cycle detected")

// Digraph is an immutable directed graph over dense node IDs in compressed
// sparse row form: the successors of u are succ[succOff[u]:succOff[u+1]],
// the predecessors pred[predOff[u]:predOff[u+1]]. The searches take their
// scratch from the caller, so a caller running one per node allocates once.
type Digraph struct {
	succOff, succ []int32
	predOff, pred []int32
}

// FromPreds returns the digraph on len(off)-1 nodes in which node v has the
// predecessors pred[off[v]:off[v+1]] — the form both callers' edges arrive
// in, grouped by the cell or flip-flop whose inputs are being walked. It
// keeps the two slices and derives the successor lists by counting, so no
// list ever grows by append. Parallel edges are kept (circuits legitimately
// have multiple connections between the same pair of cells); successor
// lists are in ascending target order. It returns an error if the offsets
// do not partition pred or a predecessor is out of range.
func FromPreds(off, pred []int32) (*Digraph, error) {
	n := len(off) - 1
	if n < 0 || off[0] != 0 || int(off[n]) != len(pred) {
		return nil, fmt.Errorf("graph: offsets do not span the %d predecessors", len(pred))
	}
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return nil, fmt.Errorf("graph: offsets decrease at node %d", v)
		}
	}
	for _, u := range pred {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("graph: predecessor %d out of range [0,%d)", u, n)
		}
	}
	// Count into succOff[u+2], so that after the prefix sum succOff[u+1] is
	// where u's list starts; filling advances it to where the list ends,
	// which is where u+1's starts.
	succOff := make([]int32, n+2)
	for _, u := range pred {
		succOff[u+2]++
	}
	for u := 2; u < n+2; u++ {
		succOff[u] += succOff[u-1]
	}
	succ := make([]int32, len(pred))
	for v := 0; v < n; v++ {
		for _, u := range pred[off[v]:off[v+1]] {
			succ[succOff[u+1]] = int32(v)
			succOff[u+1]++
		}
	}
	return &Digraph{succOff: succOff[:n+1], succ: succ, predOff: off, pred: pred}, nil
}

// Order returns the number of nodes.
func (g *Digraph) Order() int { return len(g.succOff) - 1 }

// Succ returns the successor list of u (aliased, do not modify).
func (g *Digraph) Succ(u int) []int32 { return g.succ[g.succOff[u]:g.succOff[u+1]] }

// Direction selects which adjacency a traversal follows.
type Direction int

// Traversal directions.
const (
	// Forward follows successor edges.
	Forward Direction = iota + 1
	// Backward follows predecessor edges.
	Backward
)

func (g *Digraph) adj(d Direction) (off, adj []int32) {
	if d == Backward {
		return g.predOff, g.pred
	}
	return g.succOff, g.succ
}

// BFS computes the unweighted shortest distance (in edges) from the nearest
// source to every node reachable following dir — with unit weights, exactly
// the distances of the Dijkstra search the paper names for stage counting.
// It writes them into dist and returns the reached nodes in visiting order,
// sources (distance 0) first, appended to queue[:0]. dist must hold Order()
// elements, all -1, on entry; the nodes returned are the only ones it
// changes, so a caller running many searches restores dist through that
// list at the cost of what the search reached. Out-of-range sources are
// ignored.
func (g *Digraph) BFS(sources []int32, dir Direction, dist, queue []int32) []int32 {
	queue = queue[:0]
	for _, s := range sources {
		if s >= 0 && int(s) < len(dist) && dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	off, adj := g.adj(dir)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range adj[off[u]:off[u+1]] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// SCC returns the strongly connected components (Tarjan's algorithm, with
// an explicit stack). comp[u] is the component of u; components are
// numbered so that every edge between two of them runs from the higher
// number to the lower, sinks first. order lists the nodes component by
// component in that numbering.
func (g *Digraph) SCC() (comp, order []int32) {
	n := g.Order()
	comp = make([]int32, n)
	for u := range comp {
		comp[u] = -1 // unassigned: unvisited, or visited and still on the stack
	}
	index := make([]int32, n) // discovery number, 0 while unvisited
	low := make([]int32, n)
	next := append([]int32(nil), g.succOff[:n]...) // next successor edge to follow
	order = make([]int32, 0, n)
	var stack, path []int32 // Tarjan's node stack; the depth-first path
	var visited, ncomp int32
	for root := range comp {
		if index[root] != 0 {
			continue
		}
		visited++
		index[root], low[root] = visited, visited
		stack = append(stack, int32(root))
		path = append(path[:0], int32(root))
		for len(path) > 0 {
			u := path[len(path)-1]
			if next[u] < g.succOff[u+1] {
				v := g.succ[next[u]]
				next[u]++
				if index[v] == 0 {
					visited++
					index[v], low[v] = visited, visited
					stack = append(stack, v)
					path = append(path, v)
				} else if comp[v] < 0 && index[v] < low[u] {
					low[u] = index[v]
				}
				continue
			}
			path = path[:len(path)-1]
			if len(path) > 0 {
				if p := path[len(path)-1]; low[u] < low[p] {
					low[p] = low[u]
				}
			}
			if low[u] != index[u] {
				continue
			}
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp[w] = ncomp
				order = append(order, w)
				if w == u {
					break
				}
			}
			ncomp++
		}
	}
	return comp, order
}

// ReachCounts returns, for every node, how many of the nodes [0, limit)
// reach it (from) and how many it reaches (to) along a path of at least one
// edge — so a node counts for itself exactly when it lies on a cycle. comp
// and order are the graph's SCC. Every node of a component reaches the same
// set, so one bit row per component is closed over the condensation in
// topological order: O(edges · limit/64) word operations and
// components · limit/64 words for all nodes together, where a search per
// node would be O(nodes · edges).
func (g *Digraph) ReachCounts(comp, order []int32, limit int) (from, to []int32) {
	n := g.Order()
	if n == 0 {
		return nil, nil
	}
	words := (limit + 63) / 64
	rows := make([]uint64, (int(comp[order[n-1]])+1)*words)
	merged := make([]int32, n) // merged[d] == c+1: row d is already in row c
	count := func(dir Direction, order []int32) []int32 {
		clear(rows)
		clear(merged)
		out := make([]int32, n)
		off, adj := g.adj(dir)
		for i := 0; i < n; {
			c := comp[order[i]]
			j := i
			for j < n && comp[order[j]] == c {
				j++
			}
			row := rows[int(c)*words : (int(c)+1)*words]
			cyclic := false
			for _, u := range order[i:j] {
				for _, v := range adj[off[u]:off[u+1]] {
					d := comp[v]
					if d == c {
						cyclic = true
					} else if merged[d] != c+1 {
						merged[d] = c + 1
						for w, x := range rows[int(d)*words : (int(d)+1)*words] {
							row[w] |= x
						}
					}
				}
			}
			// row holds what the component reaches beyond itself; its own
			// members join before the count only when a cycle joins them.
			reached := int32(0)
			if !cyclic {
				reached = popcount(row)
			}
			for _, u := range order[i:j] {
				if int(u) < limit {
					row[u/64] |= 1 << (u % 64)
				}
			}
			if cyclic {
				reached = popcount(row)
			}
			for _, u := range order[i:j] {
				out[u] = reached
			}
			i = j
		}
		return out
	}
	to = count(Forward, order)
	// Backward, the same closure over predecessor edges needs sources
	// first: the component numbering reversed.
	reversed := make([]int32, n)
	for i, u := range order {
		reversed[n-1-i] = u
	}
	from = count(Backward, reversed)
	return from, to
}

func popcount(row []uint64) (n int32) {
	for _, x := range row {
		n += int32(bits.OnesCount64(x))
	}
	return n
}

// ShortestCycleThrough returns the length (in edges) of the shortest directed
// cycle passing through node v, or -1 if v lies on no cycle. A self-loop has
// length 1. Every such cycle lies inside v's strongly connected component
// (comp, from SCC), so the search never leaves it. dist and queue are scratch
// under BFS's contract, and dist is all -1 again on return.
func (g *Digraph) ShortestCycleThrough(v int, comp, dist, queue []int32) int {
	queue = append(queue[:0], int32(v))
	dist[v] = 0
	length := -1
search:
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range g.Succ(int(u)) {
			if int(w) == v {
				length = int(dist[u]) + 1
				break search
			}
			if dist[w] < 0 && comp[w] == comp[v] {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	for _, u := range queue {
		dist[u] = -1
	}
	return length
}

// TopoSort returns a topological ordering of the graph, or ErrCycle if the
// graph has a directed cycle. Kahn's algorithm; ties resolve in node order so
// the result is deterministic.
func (g *Digraph) TopoSort() ([]int32, error) {
	n := g.Order()
	indeg := make([]int32, n)
	order := make([]int32, 0, n) // doubles as the frontier queue
	for u := range indeg {
		indeg[u] = g.predOff[u+1] - g.predOff[u]
		if indeg[u] == 0 {
			order = append(order, int32(u))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, v := range g.Succ(int(order[head])) {
			indeg[v]--
			if indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("%w: %d of %d nodes ordered", ErrCycle, len(order), n)
	}
	return order, nil
}

// Levels assigns each node its longest-path depth from any zero-in-degree
// node (level 0). Returns ErrCycle for cyclic graphs. Used to levelize
// combinational netlists for cycle-based simulation.
func (g *Digraph) Levels() ([]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	level := make([]int, g.Order())
	for _, u := range order {
		for _, v := range g.Succ(int(u)) {
			if level[u]+1 > level[v] {
				level[v] = level[u] + 1
			}
		}
	}
	return level, nil
}
