package cluster

import (
	"fmt"
	"math/rand"
	"sort"
)

// Sparse cluster topologies.
//
// The harness's first life wired links on demand but placed no bound on
// who talks to whom, and every scenario that wanted scale paid O(n²)
// links for all-to-all traffic. Hundreds-to-thousands of endpoints need
// the opposite discipline: a scenario declares a sparse graph up front,
// traffic follows its edges, and the harness *enforces* the declaration
// — a transfer between non-neighbors panics instead of silently
// materializing a link, so a 512-node ring provably costs O(n) links
// (asserted via fabric.SimStats.Links and Result.GateEndpoints).
//
// The shapes are the classic interconnect/overlay families: ring
// (gossip, token passing), k-ary tree (fan-out/reduction), 2D torus
// (halo exchange), and random d-regular graphs (expander overlays à la
// shuffle meshes). All are deterministic; RandomRegular draws from its
// own seeded generator so a scenario's graph replays from its seed.

// Topo is an undirected sparse graph over nodes 0..Nodes()-1. Build one
// with Ring, KaryTree, Torus2D, or RandomRegular; the zero value is not
// usable.
type Topo struct {
	name  string
	nbrs  [][]int // sorted adjacency lists
	edges int
}

// newTopo allocates an empty topology over n nodes.
func newTopo(name string, n int) *Topo {
	if n < 2 {
		panic(fmt.Sprintf("cluster: topology %q needs ≥ 2 nodes, got %d", name, n))
	}
	return &Topo{name: name, nbrs: make([][]int, n)}
}

// addEdge inserts the undirected edge {a, b}; duplicate and self edges
// panic — constructors are expected to produce simple graphs.
func (t *Topo) addEdge(a, b int) {
	if a == b {
		panic(fmt.Sprintf("cluster: topology %q: self edge at %d", t.name, a))
	}
	for _, x := range t.nbrs[a] {
		if x == b {
			panic(fmt.Sprintf("cluster: topology %q: duplicate edge {%d,%d}", t.name, a, b))
		}
	}
	t.nbrs[a] = append(t.nbrs[a], b)
	t.nbrs[b] = append(t.nbrs[b], a)
	t.edges++
}

// finish sorts the adjacency lists so edge iteration — and hence
// scenario traffic order — is deterministic regardless of construction
// order.
func (t *Topo) finish() *Topo {
	for i := range t.nbrs {
		sort.Ints(t.nbrs[i])
	}
	return t
}

// Name identifies the topology family and its parameters.
func (t *Topo) Name() string { return t.name }

// Nodes returns the node count.
func (t *Topo) Nodes() int { return len(t.nbrs) }

// Edges returns the undirected edge count — the number of fabric links
// a scenario touching every edge materializes.
func (t *Topo) Edges() int { return t.edges }

// HasEdge reports whether {a, b} is an edge.
func (t *Topo) HasEdge(a, b int) bool {
	l := t.nbrs[a]
	i := sort.SearchInts(l, b)
	return i < len(l) && l[i] == b
}

// EachEdge calls fn once per undirected edge, ordered by (min endpoint,
// max endpoint) — the canonical order scenarios use to post traffic.
func (t *Topo) EachEdge(fn func(a, b int)) {
	for a := range t.nbrs {
		for _, b := range t.nbrs[a] {
			if a < b {
				fn(a, b)
			}
		}
	}
}

// Ring builds the n-cycle: node i links to (i±1) mod n. n ≥ 3.
func Ring(n int) *Topo {
	if n < 3 {
		panic(fmt.Sprintf("cluster: ring needs ≥ 3 nodes, got %d", n))
	}
	t := newTopo(fmt.Sprintf("ring-%d", n), n)
	for i := 0; i < n; i++ {
		t.addEdge(i, (i+1)%n)
	}
	return t.finish()
}

// KaryTree builds the complete k-ary tree over n nodes in heap order:
// node c > 0 links to its parent (c-1)/k. Node 0 is the root.
func KaryTree(n, k int) *Topo {
	if k < 2 {
		panic(fmt.Sprintf("cluster: k-ary tree needs k ≥ 2, got %d", k))
	}
	t := newTopo(fmt.Sprintf("tree-%d-ary-%d", k, n), n)
	for c := 1; c < n; c++ {
		t.addEdge((c-1)/k, c)
	}
	return t.finish()
}

// Torus2D builds the rows×cols torus: each node links to its four
// wrap-around grid neighbors. Both dimensions must be ≥ 3 so wrap
// edges never coincide with grid edges.
func Torus2D(rows, cols int) *Topo {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("cluster: torus needs both dims ≥ 3, got %d×%d", rows, cols))
	}
	t := newTopo(fmt.Sprintf("torus-%dx%d", rows, cols), rows*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.addEdge(id(r, c), id(r, (c+1)%cols))
			t.addEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return t.finish()
}

// RandomRegular builds a random d-regular simple graph over n nodes via
// the seeded pairing model: n·d stubs are shuffled and paired; a
// pairing producing a self loop or duplicate edge is discarded and
// redrawn. n·d must be even and d < n. Deterministic per (n, d, seed).
func RandomRegular(n, d int, seed int64) *Topo {
	if d < 1 || d >= n || n*d%2 != 0 {
		panic(fmt.Sprintf("cluster: no %d-regular graph on %d nodes", d, n))
	}
	rng := rand.New(rand.NewSource(seed))
	stubs := make([]int, n*d)
	for attempt := 0; attempt < 1000; attempt++ {
		for i := range stubs {
			stubs[i] = i / d
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		if t := tryPairing(n, d, seed, stubs); t != nil {
			return t.finish()
		}
	}
	// With d ≪ n a valid pairing appears within a few draws; reaching
	// here means the parameters were adversarial (d close to n).
	panic(fmt.Sprintf("cluster: could not realize a %d-regular graph on %d nodes (seed %d)", d, n, seed))
}

// tryPairing pairs consecutive stubs into edges, failing on self loops
// and duplicates.
func tryPairing(n, d int, seed int64, stubs []int) *Topo {
	t := newTopo(fmt.Sprintf("regular-%d-%d-s%d", d, n, seed), n)
	seen := make(map[[2]int]bool, len(stubs)/2)
	for i := 0; i < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		if a == b {
			return nil
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return nil
		}
		seen[[2]int{a, b}] = true
		t.addEdge(a, b)
	}
	return t
}
