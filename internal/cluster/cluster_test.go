package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
)

// suiteFilter returns the scenario filter for this test run: everything
// natively, everything but the Heavy hundreds-of-nodes scenarios under
// -short (the -race CI leg, where a 512-node run costs real minutes).
// The heavy scenarios stay covered under -race by
// TestRing512ReducedUnderRace.
func suiteFilter() (func(string) bool, int) {
	count := len(Scenarios())
	if !testing.Short() {
		return nil, count
	}
	heavy := make(map[string]bool)
	for _, s := range Scenarios() {
		if s.Heavy {
			heavy[s.Name] = true
			count--
		}
	}
	return func(name string) bool { return !heavy[name] }, count
}

// TestScenarioInvariants runs the suite once: every scenario must
// satisfy its invariant contract — including broken-control and
// broken-eager, whose contract is that the hang invariant trips.
func TestScenarioInvariants(t *testing.T) {
	filter, want := suiteFilter()
	results := Run(1, filter)
	if len(results) != want {
		t.Fatalf("ran %d scenarios, expected %d", len(results), want)
	}
	for _, r := range results {
		t.Logf("%-20s nodes=%d gates=%d xfers=%d ok=%d fail=%d cancel=%d hung=%d retries=%d p50=%dns p99=%dns",
			r.Scenario, r.Nodes, r.GateEndpoints, r.Transfers, r.Completed,
			r.FailedVisibly, r.Canceled, r.Hung, r.RdvRetries, r.LatencyP50Ns, r.LatencyP99Ns)
		if !r.Passed() {
			t.Errorf("%s violated invariants: %v", r.Scenario, r.Violations)
		}
	}
}

// TestDeterministicReplay is the seed contract: two full-suite runs
// with one seed must marshal byte-identically — every latency stamp,
// every fault counter, every outcome.
func TestDeterministicReplay(t *testing.T) {
	filter, _ := suiteFilter()
	marshal := func() []byte {
		b, err := json.MarshalIndent(Run(42, filter), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := marshal(), marshal()
	if !bytes.Equal(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				lo := i - 120
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("same-seed runs diverged at byte %d:\n…%s…\nvs\n…%s…", i, a[lo:i+1], b[lo:min(i+1, len(b))])
			}
		}
		t.Fatalf("same-seed runs diverged in length: %d vs %d", len(a), len(b))
	}
	c, err := json.MarshalIndent(Run(43, filter), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 42 and 43 produced identical trajectories; the seed is not plumbed")
	}
}

// TestPartitionAndHeal exercises the cut/heal scenario directly (this
// test runs under -race in CI): in-flight cross-partition transfers
// fail visibly, the healed gates carry a clean second wave, nothing
// leaks.
func TestPartitionAndHeal(t *testing.T) {
	r := runPartitionHeal(7)
	if !r.Passed() {
		t.Fatalf("partition-and-heal violated invariants: %v", r.Violations)
	}
	if r.FailedVisibly+r.Canceled == 0 {
		t.Error("the partition cut nothing")
	}
	if r.Hung != 0 || r.LeakedStates != 0 || r.LeakedRegs != 0 || r.LiveRegions != 0 {
		t.Errorf("leaks after heal: hung=%d states=%d regs=%d regions=%d",
			r.Hung, r.LeakedStates, r.LeakedRegs, r.LiveRegions)
	}
}

// TestBrokenControlTripsHangInvariant: the ablation without handshake
// retransmission must be caught — hung requests detected, scenario
// counted as passing only because hanging is its contract.
func TestBrokenControlTripsHangInvariant(t *testing.T) {
	r := runBrokenControl(1)
	if r.Hung == 0 {
		t.Fatal("broken control did not hang; the harness would miss real hangs")
	}
	if !r.Passed() {
		t.Errorf("expect-hang contract not honored: %v", r.Violations)
	}
}

// TestFilter checks Run's name filter.
func TestFilter(t *testing.T) {
	rs := Run(1, func(name string) bool { return name == "rpc-fanout" })
	if len(rs) != 1 || rs[0].Scenario != "rpc-fanout" {
		t.Fatalf("filter returned %v", rs)
	}
}

// TestSparseTopologyDeterministicReplay is the at-scale half of the
// seed contract: two same-seed runs of the 512-node scenarios must
// marshal byte-identically, and the ring must cost exactly its O(n)
// link budget — 512 fabric links and 1024 gate endpoints, not the
// ~131k links all-to-all wiring would burn.
func TestSparseTopologyDeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("512-node scenarios skipped in -short; TestRing512ReducedUnderRace covers the topology under -race")
	}
	heavy := func(name string) bool { return name == "ring-512" || name == "ring-gossip-lossy" }
	marshal := func() []byte {
		b, err := json.MarshalIndent(Run(42, heavy), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := marshal(), marshal()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed 512-node runs diverged; sparse scenarios are not deterministic")
	}
	var rs []Result
	if err := json.Unmarshal(a, &rs); err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Nodes != 512 {
			t.Errorf("%s: ran %d nodes, want 512", r.Scenario, r.Nodes)
		}
		if r.Links != 512 {
			t.Errorf("%s: materialized %d fabric links, a 512-ring must cost exactly 512", r.Scenario, r.Links)
		}
		if r.GateEndpoints != 1024 {
			t.Errorf("%s: %d gate endpoints, a 512-ring must cost exactly 1024", r.Scenario, r.GateEndpoints)
		}
	}
}

// TestRing512ReducedUnderRace keeps the 512-endpoint wiring covered on
// the -race CI leg, where the full scenarios are skipped: all 512 nodes
// and engines come up, but only eight transfers flow — which also
// proves link materialization is lazy (8 links for 8 active edges, not
// 512 for the declared ring).
func TestRing512ReducedUnderRace(t *testing.T) {
	n := 512
	res := Result{Seed: 99}
	h := newHarness(Options{Topo: Ring(n)})
	for i := 0; i < n; i += 64 {
		h.transfer(i, (i+1)%n, 1, eagerSize)
	}
	h.drive(200 * rdvTimeout)
	out := finish(h, &res, expect{allComplete: true, maxLinks: n})
	if !out.Passed() {
		t.Fatalf("reduced ring-512 violated invariants: %v", out.Violations)
	}
	if out.Links != 8 {
		t.Errorf("8 active edges materialized %d links; materialization is not lazy", out.Links)
	}
}

// TestOffTopologyTransferPanics: the sparse-topology contract is
// enforced, not advisory — traffic between declared non-neighbors must
// panic instead of silently materializing a link behind the scenario's
// O(n) accounting.
func TestOffTopologyTransferPanics(t *testing.T) {
	h := newHarness(Options{Topo: Ring(8)})
	defer func() {
		if recover() == nil {
			t.Fatal("transfer between ring non-neighbors 0 and 4 did not panic")
		}
	}()
	h.transfer(0, 4, 1, eagerSize)
}
