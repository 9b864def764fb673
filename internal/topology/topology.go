// Package topology models machine hardware topology as a tree of nested
// resource domains — machine, NUMA node, package (chip), shared cache,
// core — in the style of hwloc / Marcel topology levels.
//
// PIOMan maps one task queue onto every node of this tree (paper Fig. 2):
// a task whose CPU set equals a node's CPU set is scheduled from that
// node's queue and may execute on any CPU below it. The package provides
// the two machines used in the paper's evaluation (Borderline and Kwak),
// generic symmetric builders, and the CPU-set → deepest-covering-node
// lookup used to place tasks.
package topology

import (
	"fmt"
	"runtime"
	"strings"

	"pioman/internal/cpuset"
)

// Kind identifies the hardware level a Node represents.
type Kind int

// Topology level kinds, ordered from outermost to innermost.
const (
	Machine Kind = iota
	NUMANode
	Package // a physical chip / socket
	Cache   // a shared cache (e.g. L3) covering several cores
	Core    // one execution unit; the leaf level
)

// String returns the conventional name of the level kind.
func (k Kind) String() string {
	switch k {
	case Machine:
		return "Machine"
	case NUMANode:
		return "NUMANode"
	case Package:
		return "Package"
	case Cache:
		return "Cache"
	case Core:
		return "Core"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one vertex of the topology tree. Leaves are Core nodes; the
// root is the Machine node. Every node knows the CPU set it covers.
type Node struct {
	Kind     Kind
	Index    int // index among nodes of the same kind, machine-wide
	ID       int // dense index into Topology.Nodes(); Nodes()[n.ID] == n
	Depth    int // 0 at the root
	CPUSet   cpuset.Set
	Parent   *Node
	Children []*Node

	// CacheLevel is the cache level (2, 3, ...) for Cache nodes; 0 otherwise.
	CacheLevel int
	// MemoryMB is the local memory size for NUMANode nodes; 0 otherwise.
	MemoryMB int
}

// String describes the node, e.g. "Package#1 cpuset=4-7".
func (n *Node) String() string {
	name := n.Kind.String()
	if n.Kind == Cache && n.CacheLevel > 0 {
		name = fmt.Sprintf("L%dCache", n.CacheLevel)
	}
	return fmt.Sprintf("%s#%d cpuset=%s", name, n.Index, n.CPUSet)
}

// IsLeaf reports whether the node is a Core (has no children).
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Topology is an immutable machine description.
type Topology struct {
	Name  string
	Root  *Node
	NCPUs int

	cores []*Node // cores[i] is the Core node for CPU i
	nodes []*Node // all nodes in depth-first pre-order
	// NUMAOf[i] is the NUMA node index of CPU i (0 when the machine has a
	// single memory domain).
	NUMAOf []int
}

// CoreNode returns the Core node of the given CPU, or nil if out of range.
func (t *Topology) CoreNode(cpu int) *Node {
	if cpu < 0 || cpu >= len(t.cores) {
		return nil
	}
	return t.cores[cpu]
}

// Nodes returns every node in depth-first pre-order (root first).
func (t *Topology) Nodes() []*Node { return t.nodes }

// NumLevels returns the number of distinct depths in the tree.
func (t *Topology) NumLevels() int {
	max := 0
	for _, n := range t.nodes {
		if n.Depth > max {
			max = n.Depth
		}
	}
	return max + 1
}

// FindCovering returns the deepest node whose CPU set is a superset of cs.
// This is the queue-placement rule of the paper: a task restricted to cs
// lands on the smallest topology domain that contains every allowed CPU.
// An empty or uncoverable cs maps to the root (global) node.
func (t *Topology) FindCovering(cs cpuset.Set) *Node {
	if cs.IsEmpty() {
		return t.Root
	}
	n := t.Root
	for {
		var next *Node
		for _, c := range n.Children {
			if cs.SubsetOf(c.CPUSet) {
				next = c
				break
			}
		}
		if next == nil {
			return n
		}
		n = next
	}
}

// PathToRoot returns the chain of nodes from the core of the given CPU up
// to the root, inclusive. This is the queue-scan order of Algorithm 1.
func (t *Topology) PathToRoot(cpu int) []*Node {
	n := t.CoreNode(cpu)
	if n == nil {
		return nil
	}
	var path []*Node
	for ; n != nil; n = n.Parent {
		path = append(path, n)
	}
	return path
}

// StealOrder returns the machine's Core nodes grouped by topological
// distance from the given CPU: group 0 holds the leaves sharing cpu's
// immediate parent (sibling cores), group 1 the leaves sharing the
// grandparent but not the parent (cousins), and so on up to the root.
// cpu's own Core node is excluded. Each successive group crosses a wider
// — and therefore more expensive — hardware boundary, so a work-stealing
// scheduler that walks the groups in order visits the nearest victims
// first and only reaches across chip and NUMA boundaries as a last
// resort. Returns nil for an out-of-range CPU.
func (t *Topology) StealOrder(cpu int) [][]*Node {
	core := t.CoreNode(cpu)
	if core == nil {
		return nil
	}
	var groups [][]*Node
	covered := core.CPUSet
	for n := core.Parent; n != nil; n = n.Parent {
		fresh := cpuset.AndNot(n.CPUSet, covered)
		if fresh.IsEmpty() {
			continue
		}
		var group []*Node
		fresh.ForEach(func(c int) bool {
			if leaf := t.CoreNode(c); leaf != nil {
				group = append(group, leaf)
			}
			return true
		})
		if len(group) > 0 {
			groups = append(groups, group)
		}
		covered = n.CPUSet
	}
	return groups
}

// String renders the topology as an indented tree (lstopo-style).
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d CPUs\n", t.Name, t.NCPUs)
	var walk func(n *Node)
	walk = func(n *Node) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", n.Depth), n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return b.String()
}

// Spec describes a symmetric machine for Build. Any level with count <= 1
// (or, for caches, SharedCache=false) is omitted from the tree.
type Spec struct {
	Name string
	// NUMANodes is the number of memory domains (>= 1).
	NUMANodes int
	// PackagesPerNUMA is the number of chips per NUMA node (>= 1).
	PackagesPerNUMA int
	// CoresPerPackage is the number of cores per chip (>= 1).
	CoresPerPackage int
	// SharedCache inserts a cache level covering each package's cores.
	SharedCache bool
	// CacheLevel is the cache level number when SharedCache is set
	// (defaults to 3).
	CacheLevel int
	// MemoryMBPerNUMA is recorded on each NUMANode node.
	MemoryMBPerNUMA int
}

// Build constructs a symmetric topology from the spec.
func Build(spec Spec) (*Topology, error) {
	if spec.NUMANodes < 1 || spec.PackagesPerNUMA < 1 || spec.CoresPerPackage < 1 {
		return nil, fmt.Errorf("topology: counts must be >= 1, got %+v", spec)
	}
	cacheLevel := spec.CacheLevel
	if cacheLevel == 0 {
		cacheLevel = 3
	}
	t := &Topology{Name: spec.Name}
	nCPU := spec.NUMANodes * spec.PackagesPerNUMA * spec.CoresPerPackage
	t.NCPUs = nCPU
	t.NUMAOf = make([]int, nCPU)
	root := &Node{Kind: Machine, CPUSet: cpuset.NewRange(0, nCPU-1)}
	t.Root = root

	cpu := 0
	pkgIdx, cacheIdx := 0, 0
	for ni := 0; ni < spec.NUMANodes; ni++ {
		numaParent := root
		if spec.NUMANodes > 1 {
			lo := cpu
			hi := cpu + spec.PackagesPerNUMA*spec.CoresPerPackage - 1
			nn := &Node{
				Kind: NUMANode, Index: ni, Depth: numaParent.Depth + 1,
				CPUSet: cpuset.NewRange(lo, hi), Parent: numaParent,
				MemoryMB: spec.MemoryMBPerNUMA,
			}
			numaParent.Children = append(numaParent.Children, nn)
			numaParent = nn
		}
		for pi := 0; pi < spec.PackagesPerNUMA; pi++ {
			pkgParent := numaParent
			if spec.PackagesPerNUMA > 1 || spec.NUMANodes == 1 {
				lo := cpu
				hi := cpu + spec.CoresPerPackage - 1
				pn := &Node{
					Kind: Package, Index: pkgIdx, Depth: pkgParent.Depth + 1,
					CPUSet: cpuset.NewRange(lo, hi), Parent: pkgParent,
				}
				pkgIdx++
				pkgParent.Children = append(pkgParent.Children, pn)
				pkgParent = pn
			}
			coreParent := pkgParent
			if spec.SharedCache {
				lo := cpu
				hi := cpu + spec.CoresPerPackage - 1
				cn := &Node{
					Kind: Cache, Index: cacheIdx, Depth: coreParent.Depth + 1,
					CPUSet: cpuset.NewRange(lo, hi), Parent: coreParent,
					CacheLevel: cacheLevel,
				}
				cacheIdx++
				coreParent.Children = append(coreParent.Children, cn)
				coreParent = cn
			}
			for ci := 0; ci < spec.CoresPerPackage; ci++ {
				core := &Node{
					Kind: Core, Index: cpu, Depth: coreParent.Depth + 1,
					CPUSet: cpuset.New(cpu), Parent: coreParent,
				}
				coreParent.Children = append(coreParent.Children, core)
				t.NUMAOf[cpu] = ni
				cpu++
			}
		}
	}
	t.index()
	return t, nil
}

// index populates the flat node and core tables from the tree and
// assigns each node its dense ID (pre-order position), which consumers
// such as the task engine use for O(1) node → queue lookups in place of
// map hashing.
func (t *Topology) index() {
	t.nodes = t.nodes[:0]
	t.cores = make([]*Node, t.NCPUs)
	var walk func(n *Node)
	walk = func(n *Node) {
		n.ID = len(t.nodes)
		t.nodes = append(t.nodes, n)
		if n.Kind == Core {
			t.cores[n.Index] = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
}

// Borderline returns the paper's first evaluation machine: a 4-socket
// dual-core AMD Opteron 8218 (8 cores). The CPU has no shared L3, so
// sibling cores share only their package's memory bank; each socket is a
// NUMA node. Queue levels: per-core, per-chip (2 cores), global (Table I).
func Borderline() *Topology {
	t, err := Build(Spec{
		Name:            "borderline",
		NUMANodes:       4,
		PackagesPerNUMA: 1,
		CoresPerPackage: 2,
		SharedCache:     false,
		MemoryMBPerNUMA: 8192,
	})
	if err != nil {
		panic(err)
	}
	return t
}

// Kwak returns the paper's second evaluation machine (Fig. 3): a 4-socket
// quad-core AMD Opteron 8347HE (16 cores), one shared L3 per chip, four
// NUMA nodes. Queue levels: per-core, per-chip/L3 (4 cores), global
// (Table II).
func Kwak() *Topology {
	t, err := Build(Spec{
		Name:            "kwak",
		NUMANodes:       4,
		PackagesPerNUMA: 1,
		CoresPerPackage: 4,
		SharedCache:     true,
		CacheLevel:      3,
		MemoryMBPerNUMA: 8192,
	})
	if err != nil {
		panic(err)
	}
	return t
}

// Host returns a flat topology describing the current Go process: one
// package holding runtime.NumCPU() cores. It is used by the real-time
// runtime stack where no NUMA information is available from the stdlib.
func Host() *Topology {
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	t, err := Build(Spec{
		Name:            "host",
		NUMANodes:       1,
		PackagesPerNUMA: 1,
		CoresPerPackage: n,
	})
	if err != nil {
		panic(err)
	}
	return t
}

// ByName returns a named machine model: "borderline", "kwak", or "host".
func ByName(name string) (*Topology, error) {
	switch name {
	case "borderline":
		return Borderline(), nil
	case "kwak":
		return Kwak(), nil
	case "host":
		return Host(), nil
	default:
		return nil, fmt.Errorf("topology: unknown machine %q (want borderline, kwak, or host)", name)
	}
}
