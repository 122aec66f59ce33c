package netlist

import "testing"

func TestFFProximityClustersChain(t *testing.T) {
	// A 6-stage shift register: FF i feeds FF i+1 through an inverter, so
	// the undirected adjacency graph is a path and BFS proximity is simply
	// index distance along the chain. Scopes keep FF names distinct.
	b := NewBuilder("chain")
	d := b.Input("din")
	for i := 0; i < 6; i++ {
		pop := b.Scope(string(rune('a' + i)))
		q := b.DFF("s", d, false)
		pop()
		d = b.Not(q)
	}
	b.Output("q", d)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if len(nl.FFs()) != 6 {
		t.Fatalf("NumFFs = %d, want 6", len(nl.FFs()))
	}

	clusters := FFProximityClusters(nl, 3)
	if len(clusters) != 6 {
		t.Fatalf("%d clusters, want 6", len(clusters))
	}
	for anchor, cl := range clusters {
		if len(cl) != 3 {
			t.Fatalf("cluster %d has %d members, want 3", anchor, len(cl))
		}
		if cl[0] != anchor {
			t.Fatalf("cluster %d starts with %d, want the anchor", anchor, cl[0])
		}
		seen := map[int]bool{}
		for _, m := range cl {
			if m < 0 || m >= 6 {
				t.Fatalf("cluster %d member %d out of range", anchor, m)
			}
			if seen[m] {
				t.Fatalf("cluster %d repeats member %d", anchor, m)
			}
			seen[m] = true
		}
		// On a chain the nearest FFs are the chain neighbours: every member
		// is within 2 hops of the anchor.
		for _, m := range cl {
			if m-anchor > 2 || anchor-m > 2 {
				t.Fatalf("cluster %d contains distant FF %d on a chain", anchor, m)
			}
		}
	}
}

func TestFFProximityClustersDeterministic(t *testing.T) {
	nl := buildShiftChainScoped(t, 8)
	a := FFProximityClusters(nl, 4)
	b := FFProximityClusters(nl, 4)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("cluster %d differs between runs", i)
			}
		}
	}
}

// TestFFProximityClustersSizeClamp: a requested size beyond the FF count
// clamps to the whole device, and a degenerate size yields singletons.
func TestFFProximityClustersSizeClamp(t *testing.T) {
	nl := buildShiftChainScoped(t, 3)
	for _, cl := range FFProximityClusters(nl, 10) {
		if len(cl) != 3 {
			t.Fatalf("oversized request produced %d members, want all 3", len(cl))
		}
	}
	for anchor, cl := range FFProximityClusters(nl, 0) {
		if len(cl) != 1 || cl[0] != anchor {
			t.Fatalf("size 0 cluster %d = %v, want the anchor alone", anchor, cl)
		}
	}
}

// TestFFProximityClustersDisconnected: flip-flops in disconnected components
// still fill their clusters deterministically by ascending FF index.
func TestFFProximityClustersDisconnected(t *testing.T) {
	b := NewBuilder("islands")
	a := b.Input("a")
	pop := b.Scope("x")
	q1 := b.DFF("r", a, false)
	pop()
	pop = b.Scope("y")
	q2 := b.DFF("r", b.Input("b"), false)
	pop()
	b.Output("o1", q1)
	b.Output("o2", q2)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	clusters := FFProximityClusters(nl, 2)
	for anchor, cl := range clusters {
		if len(cl) != 2 {
			t.Fatalf("cluster %d has %d members, want 2", anchor, len(cl))
		}
		if cl[0] != anchor {
			t.Fatalf("cluster %d anchor-first violated: %v", anchor, cl)
		}
	}
	// The islands are disconnected, so each cluster's filler is the lowest
	// other FF index.
	if clusters[0][1] != 1 || clusters[1][1] != 0 {
		t.Fatalf("disconnected fill wrong: %v", clusters)
	}
}

// buildShiftChainScoped is buildShiftChain with unique scoped FF names.
func buildShiftChainScoped(t *testing.T, stages int) *Netlist {
	t.Helper()
	b := NewBuilder("chain")
	d := b.Input("din")
	for i := 0; i < stages; i++ {
		pop := b.Scope(string(rune('a' + i)))
		q := b.DFF("s", d, false)
		pop()
		d = b.Not(q)
	}
	b.Output("q", d)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return nl
}
