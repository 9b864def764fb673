package cluster

import (
	"reflect"
	"testing"
)

// TestRing checks the cycle's shape: n edges, each node degree 2,
// neighbors exactly (i±1) mod n.
func TestRing(t *testing.T) {
	n := 7
	r := Ring(n)
	if r.Nodes() != n || r.Edges() != n {
		t.Fatalf("ring-%d: %d nodes, %d edges", n, r.Nodes(), r.Edges())
	}
	for i := 0; i < n; i++ {
		if len(r.nbrs[i]) != 2 {
			t.Errorf("node %d has degree %d, want 2", i, len(r.nbrs[i]))
		}
		if !r.HasEdge(i, (i+1)%n) || !r.HasEdge(i, (i+n-1)%n) {
			t.Errorf("node %d missing a ring neighbor", i)
		}
		if r.HasEdge(i, (i+2)%n) {
			t.Errorf("node %d has a chord to %d", i, (i+2)%n)
		}
	}
}

// TestKaryTree checks heap-order parentage: n-1 edges, every non-root
// node linked to (c-1)/k and nothing else off-path.
func TestKaryTree(t *testing.T) {
	tr := KaryTree(13, 3)
	if tr.Nodes() != 13 || tr.Edges() != 12 {
		t.Fatalf("tree: %d nodes, %d edges", tr.Nodes(), tr.Edges())
	}
	for c := 1; c < 13; c++ {
		if !tr.HasEdge(c, (c-1)/3) {
			t.Errorf("node %d not linked to its parent %d", c, (c-1)/3)
		}
	}
	if got := tr.nbrs[0]; !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("root children = %v, want [1 2 3]", got)
	}
	if tr.HasEdge(1, 2) {
		t.Error("siblings 1 and 2 are linked")
	}
}

// TestTorus2D checks the wrap grid: rows·cols nodes, 2·rows·cols edges,
// degree 4 everywhere including the wrap rows/columns.
func TestTorus2D(t *testing.T) {
	to := Torus2D(3, 4)
	if to.Nodes() != 12 || to.Edges() != 24 {
		t.Fatalf("torus: %d nodes, %d edges", to.Nodes(), to.Edges())
	}
	for i := 0; i < 12; i++ {
		if len(to.nbrs[i]) != 4 {
			t.Errorf("node %d has degree %d, want 4", i, len(to.nbrs[i]))
		}
	}
	// Corner 0 = (0,0): right (0,1)=1, left wrap (0,3)=3, down (1,0)=4,
	// up wrap (2,0)=8.
	for _, nb := range []int{1, 3, 4, 8} {
		if !to.HasEdge(0, nb) {
			t.Errorf("corner missing neighbor %d", nb)
		}
	}
}

// TestRandomRegular checks the pairing model's contract: exact degree
// everywhere, simple graph, deterministic per seed, different across
// seeds.
func TestRandomRegular(t *testing.T) {
	g := RandomRegular(24, 4, 7)
	if g.Nodes() != 24 || g.Edges() != 48 {
		t.Fatalf("regular: %d nodes, %d edges", g.Nodes(), g.Edges())
	}
	for i := 0; i < 24; i++ {
		nbs := g.nbrs[i]
		if len(nbs) != 4 {
			t.Errorf("node %d has degree %d, want 4", i, len(nbs))
		}
		for j := 1; j < len(nbs); j++ {
			if nbs[j] == nbs[j-1] {
				t.Errorf("node %d has duplicate neighbor %d", i, nbs[j])
			}
		}
		if g.HasEdge(i, i) {
			t.Errorf("node %d has a self loop", i)
		}
	}
	same := RandomRegular(24, 4, 7)
	if !reflect.DeepEqual(g.nbrs, same.nbrs) {
		t.Error("same-seed random regular graphs differ")
	}
	other := RandomRegular(24, 4, 8)
	if reflect.DeepEqual(g.nbrs, other.nbrs) {
		t.Error("different seeds produced the same graph; the seed is not plumbed")
	}
}

// TestEachEdgeCanonicalOrder: EachEdge must emit (a<b) pairs sorted by
// (a, b) — the order scenario traffic posting relies on for replay.
func TestEachEdgeCanonicalOrder(t *testing.T) {
	g := RandomRegular(16, 3, 3)
	var prev [2]int
	count := 0
	g.EachEdge(func(a, b int) {
		if a >= b {
			t.Fatalf("EachEdge emitted non-canonical pair (%d,%d)", a, b)
		}
		if count > 0 && (a < prev[0] || (a == prev[0] && b <= prev[1])) {
			t.Fatalf("EachEdge out of order: (%d,%d) after (%d,%d)", a, b, prev[0], prev[1])
		}
		prev = [2]int{a, b}
		count++
	})
	if count != g.Edges() {
		t.Fatalf("EachEdge visited %d edges, graph has %d", count, g.Edges())
	}
}

// TestTopologyConstructorPanics: invalid parameters must fail loudly at
// construction, not corrupt a scenario later.
func TestTopologyConstructorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"ring too small", func() { Ring(2) }},
		{"tree k too small", func() { KaryTree(5, 1) }},
		{"torus dim too small", func() { Torus2D(2, 5) }},
		{"regular odd stubs", func() { RandomRegular(5, 3, 1) }},
		{"regular d too large", func() { RandomRegular(4, 4, 1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn()
		})
	}
}
