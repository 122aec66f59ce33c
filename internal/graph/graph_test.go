package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// build lays out the graph on n nodes with the given edges, grouped by
// target in the order given.
func build(t testing.TB, n int, edges ...[2]int32) *Digraph {
	t.Helper()
	off := make([]int32, n+1)
	pred := make([]int32, 0, len(edges))
	for v := 0; v < n; v++ {
		for _, e := range edges {
			if int(e[1]) == v {
				pred = append(pred, e[0])
			}
		}
		off[v+1] = int32(len(pred))
	}
	g, err := FromPreds(off, pred)
	if err != nil {
		t.Fatalf("FromPreds: %v", err)
	}
	return g
}

func preds(g *Digraph, u int) []int32 { return g.pred[g.predOff[u]:g.predOff[u+1]] }

// diamond builds 0→1, 0→2, 1→3, 2→3.
func diamond(t *testing.T) *Digraph {
	return build(t, 4, [2]int32{0, 1}, [2]int32{0, 2}, [2]int32{1, 3}, [2]int32{2, 3})
}

// randomGraph draws n nodes and about perNode·n edges, self-loops, parallel
// edges and cycles included.
func randomGraph(t testing.TB, rng *rand.Rand, n, perNode int) (*Digraph, [][2]int32) {
	edges := make([][2]int32, n*perNode)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return build(t, n, edges...), edges
}

// distances runs one BFS on fresh scratch and returns the distance array.
func distances(g *Digraph, sources []int32, dir Direction) []int32 {
	dist := make([]int32, g.Order())
	for i := range dist {
		dist[i] = -1
	}
	g.BFS(sources, dir, dist, nil)
	return dist
}

// reachable is the obvious reachability the closure is checked against:
// one search per start node, start excluded unless a cycle returns to it.
func reachable(g *Digraph, start int, dir Direction) []bool {
	seen := make([]bool, g.Order())
	stack := []int32{int32(start)}
	for len(stack) > 0 {
		u := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		next := g.Succ(u)
		if dir == Backward {
			next = preds(g, u)
		}
		for _, v := range next {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

func reachCounts(g *Digraph, limit int) (from, to []int32) {
	comp, order := g.SCC()
	return g.ReachCounts(comp, order, limit)
}

func TestOrderSizeDegrees(t *testing.T) {
	g := diamond(t)
	if g.Order() != 4 {
		t.Fatalf("order=%d, want 4", g.Order())
	}
	if len(g.Succ(0)) != 2 || len(preds(g, 3)) != 2 {
		t.Fatalf("degrees wrong: out0=%d in3=%d", len(g.Succ(0)), len(preds(g, 3)))
	}
	if len(g.Succ(3)) != 0 || len(preds(g, 0)) != 0 {
		t.Fatal("sink/source degrees wrong")
	}
	if empty := build(t, 0); empty.Order() != 0 {
		t.Fatalf("empty graph has order %d", empty.Order())
	}
}

// Predecessor lists are the caller's; successor lists come out in target
// order, parallel edges included: the netlist's evaluation order depends
// on it.
func TestAdjacencyKeepsEdgeOrder(t *testing.T) {
	g := build(t, 4, [2]int32{0, 3}, [2]int32{2, 1}, [2]int32{0, 1}, [2]int32{0, 3}, [2]int32{2, 3})
	want := map[int][]int32{0: {1, 3, 3}, 2: {1, 3}}
	for u, w := range want {
		if got := g.Succ(u); !slices.Equal(got, w) {
			t.Fatalf("Succ(%d) = %v, want %v", u, got, w)
		}
	}
	if got := preds(g, 3); !slices.Equal(got, []int32{0, 0, 2}) {
		t.Fatalf("Pred(3) = %v, want [0 0 2]", got)
	}
	if got := preds(g, 1); !slices.Equal(got, []int32{2, 0}) {
		t.Fatalf("Pred(1) = %v, want [2 0]", got)
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	for name, g := range map[string][2][]int32{
		"predecessor past the end": {{0, 0, 1}, {5}},
		"negative predecessor":     {{0, 1, 1}, {-1}},
		"offsets short of pred":    {{0, 1, 1}, {0, 1}},
		"offsets decreasing":       {{0, 2, 1, 2}, {0, 1}},
		"no offsets":               {{}, {}},
	} {
		if _, err := FromPreds(g[0], g[1]); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestBFSDistances(t *testing.T) {
	g := diamond(t)
	d := distances(g, []int32{0}, Forward)
	want := []int32{0, 1, 1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
	back := distances(g, []int32{3}, Backward)
	wantBack := []int32{2, 1, 1, 0}
	for i := range wantBack {
		if back[i] != wantBack[i] {
			t.Fatalf("back dist[%d] = %d, want %d", i, back[i], wantBack[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := build(t, 3, [2]int32{0, 1})
	d := distances(g, []int32{0, -5, 7}, Forward) // bad sources are ignored
	if d[1] != 1 || d[2] != -1 {
		t.Fatalf("dist = %v, want [0 1 -1]", d)
	}
}

func TestBFSMultiSource(t *testing.T) {
	g := build(t, 5, [2]int32{0, 2}, [2]int32{1, 3}, [2]int32{3, 4})
	d := distances(g, []int32{0, 1}, Forward)
	if d[2] != 1 || d[3] != 1 || d[4] != 2 {
		t.Fatalf("multi-source BFS wrong: %v", d)
	}
}

// The scratch contract searches per port and per flip-flop rely on: BFS
// returns exactly the nodes whose distance it set, in nondecreasing
// distance, and resetting those leaves dist ready for the next search.
func TestBFSReturnsWhatItReached(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, _ := randomGraph(t, rng, 2+rng.Intn(25), 2)
		dist := make([]int32, g.Order())
		for i := range dist {
			dist[i] = -1
		}
		var queue []int32
		for src := 0; src < g.Order(); src++ {
			queue = g.BFS([]int32{int32(src)}, Forward, dist, queue)
			want := reachable(g, src, Forward)
			want[src] = true
			if queue[0] != int32(src) {
				return false
			}
			for i, u := range queue {
				if !want[u] || dist[u] < 0 || (i > 0 && dist[u] < dist[queue[i-1]]) {
					return false
				}
				want[u] = false
				dist[u] = -1
			}
			for u := range want {
				if want[u] || dist[u] != -1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReachable(t *testing.T) {
	g := diamond(t)
	from, to := reachCounts(g, g.Order())
	for u, want := range []int32{3, 1, 1, 0} {
		if to[u] != want {
			t.Fatalf("node %d reaches %d nodes, want %d", u, to[u], want)
		}
	}
	for u, want := range []int32{0, 1, 1, 3} {
		if from[u] != want {
			t.Fatalf("node %d is reached from %d nodes, want %d", u, from[u], want)
		}
	}
	// Only the first two nodes count.
	_, to = reachCounts(g, 2)
	if to[0] != 1 || to[1] != 0 || to[3] != 0 {
		t.Fatalf("limited counts = %v, want [1 0 0 0]", to)
	}
}

// A node counts for itself exactly when it lies on a cycle: through a
// self-loop, or through the other members of its component.
func TestReachCountsOnCycles(t *testing.T) {
	// 0→1→2→0 is a component; 3 has a self-loop; 4 hangs off the cycle;
	// 5 feeds it.
	g := build(t, 6, [2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 0}, [2]int32{3, 3}, [2]int32{2, 4}, [2]int32{5, 0})
	from, to := reachCounts(g, g.Order())
	wantTo := []int32{4, 4, 4, 1, 0, 4}
	wantFrom := []int32{4, 4, 4, 1, 4, 0}
	for u := range wantTo {
		if to[u] != wantTo[u] || from[u] != wantFrom[u] {
			t.Fatalf("node %d: to=%d from=%d, want %d and %d", u, to[u], from[u], wantTo[u], wantFrom[u])
		}
	}
}

func TestReachCountsMatchSearchPerNode(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(90) // past one bitset word
		g, _ := randomGraph(t, rng, n, 1+rng.Intn(2))
		limit := rng.Intn(n + 1)
		from, to := reachCounts(g, limit)
		for v := 0; v < n; v++ {
			for dir, got := range map[Direction]int32{Forward: to[v], Backward: from[v]} {
				want := int32(0)
				for u, ok := range reachable(g, v, dir) {
					if ok && u < limit {
						want++
					}
				}
				if got != want {
					t.Logf("seed %d node %d dir %d limit %d: got %d, want %d", seed, v, dir, limit, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Components are numbered sinks first and listed in that order, and two
// nodes share one exactly when each reaches the other.
func TestSCC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g, edges := randomGraph(t, rng, n, 1+rng.Intn(2))
		comp, order := g.SCC()
		if len(order) != n {
			return false
		}
		for i := 1; i < n; i++ {
			if d := comp[order[i]] - comp[order[i-1]]; d != 0 && d != 1 {
				return false
			}
		}
		for _, e := range edges {
			if comp[e[0]] < comp[e[1]] {
				return false
			}
		}
		for u := 0; u < n; u++ {
			reach := reachable(g, u, Forward)
			for v := 0; v < n; v++ {
				mutual := u == v || (reach[v] && reachable(g, v, Forward)[u])
				if mutual != (comp[u] == comp[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func shortestCycle(g *Digraph, v int) int {
	comp, _ := g.SCC()
	dist := make([]int32, g.Order())
	for i := range dist {
		dist[i] = -1
	}
	length := g.ShortestCycleThrough(v, comp, dist, nil)
	for _, d := range dist {
		if d != -1 {
			return -2 // scratch not restored
		}
	}
	return length
}

func TestShortestCycleThrough(t *testing.T) {
	// 0→1→2→0, a self-loop on 3, and a longer way round 0→4→5→2.
	g := build(t, 6, [2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 0}, [2]int32{3, 3},
		[2]int32{0, 4}, [2]int32{4, 5}, [2]int32{5, 2})
	for v, want := range []int{3, 3, 3, 1, 4, 4} {
		if got := shortestCycle(g, v); got != want {
			t.Fatalf("cycle through %d = %d, want %d", v, got, want)
		}
	}
	h := diamond(t)
	if got := shortestCycle(h, 0); got != -1 {
		t.Fatalf("acyclic cycle = %d, want -1", got)
	}
}

func TestTopoSort(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := make([]int, g.Order())
	for i, u := range order {
		pos[u] = i
	}
	for u := 0; u < g.Order(); u++ {
		for _, v := range g.Succ(u) {
			if pos[u] >= pos[int(v)] {
				t.Fatalf("topo violated: %d before %d", v, u)
			}
		}
	}
}

// Ties resolve in node order, first come first served: the compiled
// simulator's op order — and with it every kernel — is this order.
func TestTopoSortOrderIsDeterministic(t *testing.T) {
	// 0 and 3 are sources; 0 frees 1 then 2, then 3 and 2 free 4.
	g := build(t, 5, [2]int32{0, 2}, [2]int32{0, 1}, [2]int32{3, 4}, [2]int32{2, 4})
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	if want := []int32{0, 3, 1, 2, 4}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := build(t, 2, [2]int32{0, 1}, [2]int32{1, 0})
	if _, err := g.TopoSort(); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestLevels(t *testing.T) {
	g := diamond(t)
	lv, err := g.Levels()
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	want := []int{0, 1, 1, 2}
	for i := range want {
		if lv[i] != want[i] {
			t.Fatalf("level[%d] = %d, want %d", i, lv[i], want[i])
		}
	}
}

func TestLevelsLongestPath(t *testing.T) {
	// 0→1→2→3 plus shortcut 0→3: level of 3 must be 3 (longest path).
	g := build(t, 4, [2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 3}, [2]int32{0, 3})
	lv, err := g.Levels()
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	if lv[3] != 3 {
		t.Fatalf("level[3] = %d, want 3", lv[3])
	}
}

// Property: reachability sets only grow when edges are added.
func TestReachabilityMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		var edges [][2]int32
		counts := make([]int32, n)
		for e := 0; e < 10; e++ {
			edges = append(edges, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
			_, to := reachCounts(build(t, n, edges...), n)
			for v := range counts {
				if to[v] < counts[v] {
					return false
				}
				counts[v] = to[v]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
