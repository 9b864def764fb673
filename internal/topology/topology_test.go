package topology

import (
	"strings"
	"testing"
	"testing/quick"

	"pioman/internal/cpuset"
)

func TestBorderlineShape(t *testing.T) {
	topo := Borderline()
	if topo.NCPUs != 8 {
		t.Fatalf("NCPUs = %d, want 8", topo.NCPUs)
	}
	if topo.Root.Kind != Machine {
		t.Fatalf("root kind = %v, want Machine", topo.Root.Kind)
	}
	// 4 NUMA nodes, each holding one dual-core package.
	if got := len(topo.Root.Children); got != 4 {
		t.Fatalf("root children = %d, want 4 NUMA nodes", got)
	}
	for i, nn := range topo.Root.Children {
		if nn.Kind != NUMANode {
			t.Errorf("child %d kind = %v, want NUMANode", i, nn.Kind)
		}
		if nn.CPUSet.Count() != 2 {
			t.Errorf("NUMA node %d covers %d CPUs, want 2", i, nn.CPUSet.Count())
		}
	}
	// Depth chain: Machine -> NUMANode -> Core (packages collapse since
	// PackagesPerNUMA == 1... they are retained only when >1 or flat machine).
	path := topo.PathToRoot(0)
	if len(path) == 0 || path[0].Kind != Core || path[len(path)-1].Kind != Machine {
		t.Fatalf("bad PathToRoot: %v", path)
	}
}

func TestKwakShape(t *testing.T) {
	topo := Kwak()
	if topo.NCPUs != 16 {
		t.Fatalf("NCPUs = %d, want 16", topo.NCPUs)
	}
	if got := len(topo.Root.Children); got != 4 {
		t.Fatalf("root children = %d, want 4 NUMA nodes", got)
	}
	// Paper Fig. 3: cores 0-3, 4-7, 8-11, 12-15 per NUMA node.
	wantSets := []string{"0-3", "4-7", "8-11", "12-15"}
	for i, nn := range topo.Root.Children {
		if nn.CPUSet.String() != wantSets[i] {
			t.Errorf("NUMA node %d cpuset = %s, want %s", i, nn.CPUSet, wantSets[i])
		}
	}
	// Each NUMA node contains an L3 cache level covering its 4 cores.
	foundCache := 0
	for _, n := range topo.Nodes() {
		if n.Kind == Cache {
			foundCache++
			if n.CacheLevel != 3 {
				t.Errorf("cache level = %d, want 3", n.CacheLevel)
			}
			if n.CPUSet.Count() != 4 {
				t.Errorf("L3 covers %d cores, want 4", n.CPUSet.Count())
			}
		}
	}
	if foundCache != 4 {
		t.Errorf("found %d L3 caches, want 4", foundCache)
	}
}

func TestNUMAOf(t *testing.T) {
	topo := Kwak()
	want := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}
	for cpu, w := range want {
		if topo.NUMAOf[cpu] != w {
			t.Errorf("NUMAOf[%d] = %d, want %d", cpu, topo.NUMAOf[cpu], w)
		}
	}
}

func TestCoreNodes(t *testing.T) {
	topo := Kwak()
	for cpu := 0; cpu < topo.NCPUs; cpu++ {
		core := topo.CoreNode(cpu)
		if core == nil {
			t.Fatalf("CoreNode(%d) = nil", cpu)
		}
		if core.Kind != Core || core.Index != cpu {
			t.Errorf("CoreNode(%d) = %v", cpu, core)
		}
		if !core.CPUSet.Equal(cpuset.New(cpu)) {
			t.Errorf("core %d cpuset = %s", cpu, core.CPUSet)
		}
		if len(core.Children) != 0 {
			t.Errorf("core %d is not a leaf", cpu)
		}
	}
	if topo.CoreNode(-1) != nil || topo.CoreNode(16) != nil {
		t.Error("out-of-range CoreNode should be nil")
	}
}

func TestFindCoveringKwak(t *testing.T) {
	topo := Kwak()
	cases := []struct {
		cs   cpuset.Set
		kind Kind
	}{
		{cpuset.New(5), Core},             // single core -> per-core queue
		{cpuset.New(4, 5), Cache},         // two cores sharing L3 -> cache queue
		{cpuset.NewRange(4, 7), Cache},    // whole chip -> its L3 queue
		{cpuset.New(3, 4), Machine},       // spans two NUMA nodes -> global
		{cpuset.NewRange(0, 15), Machine}, // everything -> global
		{cpuset.Set{}, Machine},           // empty -> global by convention
		{cpuset.New(0, 200), Machine},     // uncoverable CPU -> global
	}
	for _, c := range cases {
		n := topo.FindCovering(c.cs)
		if n.Kind != c.kind {
			t.Errorf("FindCovering(%s) = %v, want kind %v", c.cs, n, c.kind)
		}
		if !c.cs.IsEmpty() && c.cs.IsSet(0) && c.cs.Last() < topo.NCPUs {
			if !c.cs.SubsetOf(n.CPUSet) {
				t.Errorf("FindCovering(%s) = %v does not cover the set", c.cs, n)
			}
		}
	}
}

func TestFindCoveringIsDeepest(t *testing.T) {
	topo := Kwak()
	// Property: for any in-range set, the returned node covers the set and
	// no child of the node covers it.
	f := func(raw uint16) bool {
		var cs cpuset.Set
		for b := 0; b < 16; b++ {
			if raw&(1<<uint(b)) != 0 {
				cs.Set(b)
			}
		}
		n := topo.FindCovering(cs)
		if !cs.IsEmpty() && !cs.SubsetOf(n.CPUSet) {
			return false
		}
		for _, c := range n.Children {
			if !cs.IsEmpty() && cs.SubsetOf(c.CPUSet) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathToRootOrder(t *testing.T) {
	topo := Kwak()
	path := topo.PathToRoot(6)
	if len(path) < 3 {
		t.Fatalf("path too short: %v", path)
	}
	if path[0].Kind != Core || path[0].Index != 6 {
		t.Errorf("path[0] = %v, want Core#6", path[0])
	}
	if path[len(path)-1] != topo.Root {
		t.Error("path must end at root")
	}
	// CPU sets must be nested along the path.
	for i := 0; i+1 < len(path); i++ {
		if !path[i].CPUSet.SubsetOf(path[i+1].CPUSet) {
			t.Errorf("path[%d] %v not nested in path[%d] %v", i, path[i], i+1, path[i+1])
		}
		if path[i].Parent != path[i+1] {
			t.Errorf("path[%d].Parent != path[%d]", i, i+1)
		}
	}
	if got := topo.PathToRoot(99); got != nil {
		t.Error("PathToRoot out of range should be nil")
	}
}

func TestChildrenPartitionParent(t *testing.T) {
	for _, topo := range []*Topology{Borderline(), Kwak(), Host()} {
		for _, n := range topo.Nodes() {
			if len(n.Children) == 0 {
				continue
			}
			union := cpuset.Set{}
			for i, a := range n.Children {
				for _, b := range n.Children[i+1:] {
					if a.CPUSet.Intersects(b.CPUSet) {
						t.Errorf("%s: children %v and %v overlap", topo.Name, a, b)
					}
				}
				union = cpuset.Or(union, a.CPUSet)
			}
			if !union.Equal(n.CPUSet) {
				t.Errorf("%s: children of %v cover %s, want %s", topo.Name, n, union, n.CPUSet)
			}
		}
	}
}

func TestBuildRejectsBadSpec(t *testing.T) {
	bad := []Spec{
		{NUMANodes: 0, PackagesPerNUMA: 1, CoresPerPackage: 1},
		{NUMANodes: 1, PackagesPerNUMA: 0, CoresPerPackage: 1},
		{NUMANodes: 1, PackagesPerNUMA: 1, CoresPerPackage: 0},
	}
	for _, s := range bad {
		if _, err := Build(s); err == nil {
			t.Errorf("Build(%+v) should fail", s)
		}
	}
}

func TestBuildMultiPackagePerNUMA(t *testing.T) {
	topo, err := Build(Spec{
		Name: "2n2p2c", NUMANodes: 2, PackagesPerNUMA: 2, CoresPerPackage: 2,
		SharedCache: true, CacheLevel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NCPUs != 8 {
		t.Fatalf("NCPUs = %d, want 8", topo.NCPUs)
	}
	pkgs := 0
	for _, n := range topo.Nodes() {
		if n.Kind == Package {
			pkgs++
		}
	}
	if pkgs != 4 {
		t.Errorf("packages = %d, want 4", pkgs)
	}
	// Core 2 should be in package 1, NUMA 0.
	if topo.NUMAOf[2] != 0 || topo.NUMAOf[4] != 1 {
		t.Errorf("NUMAOf wrong: %v", topo.NUMAOf)
	}
}

func TestHost(t *testing.T) {
	topo := Host()
	if topo.NCPUs < 1 {
		t.Fatalf("host NCPUs = %d", topo.NCPUs)
	}
	if topo.FindCovering(cpuset.New(0)).Kind != Core {
		t.Error("host per-core lookup failed")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"borderline", "kwak", "host"} {
		topo, err := ByName(name)
		if err != nil || topo == nil {
			t.Errorf("ByName(%q) failed: %v", name, err)
		}
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("ByName(nonesuch) should fail")
	}
}

func TestStringRendering(t *testing.T) {
	out := Kwak().String()
	for _, want := range []string{"kwak: 16 CPUs", "NUMANode#0", "L3Cache", "Core#15"} {
		if !strings.Contains(out, want) {
			t.Errorf("topology rendering missing %q:\n%s", want, out)
		}
	}
}

func TestNumLevels(t *testing.T) {
	levels := func(t *Topology) int {
		n := 0
		for _, node := range t.Nodes() {
			n = max(n, node.Depth+1)
		}
		return n
	}
	// kwak: Machine > NUMA > L3 > Core = 4 levels.
	if got := levels(Kwak()); got != 4 {
		t.Errorf("kwak levels = %d, want 4", got)
	}
	// borderline: Machine > NUMA > Core = 3 levels.
	if got := levels(Borderline()); got != 3 {
		t.Errorf("borderline levels = %d, want 3", got)
	}
}

func TestNodeIDsAreDense(t *testing.T) {
	for _, name := range []string{"borderline", "kwak", "host"} {
		topo, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range topo.Nodes() {
			if n.ID != i {
				t.Errorf("%s: Nodes()[%d].ID = %d, want %d", name, i, n.ID, i)
			}
		}
	}
}

func TestStealOrder(t *testing.T) {
	// Kwak CPU 5 (NUMA node 1, cores 4-7): siblings 4,6,7 first, then
	// the twelve NUMA-remote cores in one machine-level group.
	topo := Kwak()
	groups := topo.StealOrder(5)
	if len(groups) != 2 {
		t.Fatalf("StealOrder(5) has %d groups, want 2: %v", len(groups), groups)
	}
	wantFirst := map[int]bool{4: true, 6: true, 7: true}
	if len(groups[0]) != 3 {
		t.Fatalf("sibling group = %v, want cores 4,6,7", groups[0])
	}
	for _, n := range groups[0] {
		if n.Kind != Core || !wantFirst[n.Index] {
			t.Errorf("unexpected sibling %v", n)
		}
	}
	if len(groups[1]) != 12 {
		t.Errorf("remote group has %d cores, want 12", len(groups[1]))
	}
	for _, n := range groups[1] {
		if n.Index >= 4 && n.Index <= 7 {
			t.Errorf("core %d in remote group but shares CPU 5's NUMA node", n.Index)
		}
	}

	// No group may contain the CPU's own core, and the union over all
	// groups must be every other core exactly once.
	for _, name := range []string{"borderline", "kwak", "host"} {
		topo, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for cpu := 0; cpu < topo.NCPUs; cpu++ {
			seen := map[int]bool{}
			for _, g := range topo.StealOrder(cpu) {
				for _, n := range g {
					if n.Kind != Core {
						t.Fatalf("%s: non-core victim %v", name, n)
					}
					if n.Index == cpu {
						t.Fatalf("%s: StealOrder(%d) contains its own core", name, cpu)
					}
					if seen[n.Index] {
						t.Fatalf("%s: core %d appears twice in StealOrder(%d)", name, n.Index, cpu)
					}
					seen[n.Index] = true
				}
			}
			if len(seen) != topo.NCPUs-1 {
				t.Errorf("%s: StealOrder(%d) covers %d cores, want %d", name, cpu, len(seen), topo.NCPUs-1)
			}
		}
	}

	if got := topo.StealOrder(-1); got != nil {
		t.Errorf("StealOrder(-1) = %v, want nil", got)
	}
	if got := topo.StealOrder(99); got != nil {
		t.Errorf("StealOrder(99) = %v, want nil", got)
	}
}
