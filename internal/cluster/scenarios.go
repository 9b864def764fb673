package cluster

import (
	"fmt"

	"pioman/internal/admit"
	"pioman/internal/fabric"
	"pioman/internal/nmad"
	"pioman/internal/simtime"
	"pioman/internal/trace"
	"pioman/internal/trace/analyze"
)

// Result is one scenario's BENCH record. Every field is an integer
// derived from the virtual clock, seeded RNG draws, or deterministic
// counters, so two runs with the same seed marshal byte-identically.
type Result struct {
	Scenario      string `json:"scenario"`
	Description   string `json:"description"`
	Seed          int64  `json:"seed"`
	Nodes         int    `json:"nodes"`
	GateEndpoints int    `json:"gate_endpoints"`
	Links         int    `json:"links"`

	Transfers      int   `json:"transfers"`
	Completed      int   `json:"completed"`
	FailedVisibly  int   `json:"failed_visibly"`
	Canceled       int   `json:"canceled"`
	Hung           int   `json:"hung"`
	Corrupt        int   `json:"corrupt"`
	BytesDelivered int64 `json:"bytes_delivered"`

	LeakedStates int `json:"leaked_states"`
	LeakedRegs   int `json:"leaked_regs"`
	LiveRegions  int `json:"live_regions_after_close"`

	DroppedFrames uint64 `json:"dropped_frames"`
	DupFrames     uint64 `json:"duplicated_frames"`
	DroppedReads  uint64 `json:"dropped_reads"`
	RdvRetries    uint64 `json:"rdv_retries"`
	RdvTimeouts   uint64 `json:"rdv_timeouts"`
	EagerRetries  uint64 `json:"eager_retries"`
	EagerTimeouts uint64 `json:"eager_timeouts"`

	// Admission-control section, summed across every node's engine.
	// Present only when a scenario enables admission (omitempty keeps
	// pre-admission baseline entries byte-identical).
	AdmitAdmitted     uint64 `json:"admit_admitted,omitempty"`
	AdmitRejected     uint64 `json:"admit_rejected,omitempty"`
	AdmitShed         uint64 `json:"admit_shed,omitempty"`
	AdmitBlocked      uint64 `json:"admit_blocked,omitempty"`
	AdmitExpired      uint64 `json:"admit_expired,omitempty"`
	DeadlineExpired   uint64 `json:"deadline_expired,omitempty"`
	AdmitRejectErrors int    `json:"admit_reject_errors,omitempty"`
	// LeakedCredits sums post-quiesce admission residue over every gate:
	// request credits + byte credits + parked submissions. Must be zero.
	LeakedCredits int64 `json:"leaked_admit_credits,omitempty"`
	// PeakInflight is the highest protocol-state count any single node
	// reached (Options.TrackInflight scenarios only).
	PeakInflight int `json:"peak_inflight,omitempty"`

	LatencyP50Ns int64 `json:"latency_p50_ns"`
	LatencyP99Ns int64 `json:"latency_p99_ns"`
	LatencyMaxNs int64 `json:"latency_max_ns"`
	VirtualNs    int64 `json:"virtual_ns"`

	// Phase attribution from the flight recorder's message spans,
	// present only on traced runs (RunTraced / clusterbench with a
	// recorder attached); plain runs omit the section so untraced JSON
	// is unchanged. All integers on the virtual clock, so traced JSON
	// stays byte-identical under a fixed seed too.
	TraceMessages    int         `json:"trace_messages,omitempty"`
	TraceOrphanSpans int         `json:"trace_orphan_spans,omitempty"`
	Phases           []PhaseStat `json:"phases,omitempty"`

	ExpectHang bool     `json:"expect_hang"`
	Violations []string `json:"violations"`
}

// PhaseStat is one protocol phase's latency distribution across every
// traced message of the scenario (virtual-clock nanoseconds).
type PhaseStat struct {
	Phase string `json:"phase"`
	Count uint64 `json:"count"`
	P50Ns int64  `json:"p50_ns"`
	P99Ns int64  `json:"p99_ns"`
	MaxNs int64  `json:"max_ns"`
}

// Passed reports whether every invariant held.
func (r Result) Passed() bool { return len(r.Violations) == 0 }

// expect is one scenario's invariant contract, checked after quiesce.
type expect struct {
	// allComplete requires every transfer to finish byte-exact.
	allComplete bool
	// minVisibleFailures requires at least this many transfers to fail
	// with a visible error (chaos scenarios must prove the cut bit).
	minVisibleFailures int
	// minRetries requires the rendezvous retransmission machinery to
	// have fired.
	minRetries uint64
	// minEagerRetries requires the eager retransmission window to have
	// fired.
	minEagerRetries uint64
	// maxLinks bounds the fabric links the scenario materialized
	// (0 = unchecked) — the O(n) sparse-wiring assertion.
	maxLinks int
	// minCompletedFrac requires Completed ≥ Transfers·num/den — the
	// "retransmission saved most traffic" bar of lossy scenarios.
	// Zero values skip the check.
	minCompletedNum, minCompletedDen int
	// maxP99 bounds the completed-transfer p99 latency in virtual time
	// (0 = unbounded).
	maxP99 simtime.Duration
	// maxPeakInflight bounds the per-node protocol-state peak under
	// admission (0 = unchecked); minPeakInflight is the ablation's
	// inverse — the peak must EXCEED it to prove unbounded growth.
	maxPeakInflight int
	minPeakInflight int
	// expectHang inverts the hang invariant: the scenario exists to
	// prove the harness catches hangs, so zero hung requests is the
	// violation. Leak checks are skipped (a hang leaks by definition).
	expectHang bool
}

// check appends every violated invariant to res.Violations.
func check(res *Result, ex expect) {
	res.ExpectHang = ex.expectHang
	fail := func(f string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(f, args...))
	}
	if ex.expectHang {
		if res.Hung == 0 {
			fail("broken control completed cleanly: the hang invariant caught nothing")
		}
		return
	}
	if res.Hung > 0 {
		fail("%d requests hung past the virtual-time budget", res.Hung)
	}
	if res.Corrupt > 0 {
		fail("%d transfers delivered corrupted payloads", res.Corrupt)
	}
	if res.LeakedStates > 0 {
		fail("%d protocol states leaked after quiesce", res.LeakedStates)
	}
	if res.LeakedRegs > 0 {
		fail("%d registrations still pinned after quiesce", res.LeakedRegs)
	}
	if res.LiveRegions > 0 {
		fail("%d fabric regions alive after engine close", res.LiveRegions)
	}
	if res.LeakedCredits > 0 {
		fail("%d admission credits leaked after quiesce", res.LeakedCredits)
	}
	if res.AdmitRejectErrors != int(res.AdmitRejected) {
		fail("admission accounting mismatch: engines counted %d rejects, %d surfaced as errors",
			res.AdmitRejected, res.AdmitRejectErrors)
	}
	if ex.allComplete && res.Completed != res.Transfers {
		fail("%d of %d transfers did not complete", res.Transfers-res.Completed, res.Transfers)
	}
	if res.FailedVisibly+res.Canceled < ex.minVisibleFailures {
		fail("only %d visible failures, scenario requires ≥ %d",
			res.FailedVisibly+res.Canceled, ex.minVisibleFailures)
	}
	if res.RdvRetries < ex.minRetries {
		fail("only %d rendezvous retries, scenario requires ≥ %d", res.RdvRetries, ex.minRetries)
	}
	if res.EagerRetries < ex.minEagerRetries {
		fail("only %d eager retries, scenario requires ≥ %d", res.EagerRetries, ex.minEagerRetries)
	}
	if ex.maxLinks > 0 && res.Links > ex.maxLinks {
		fail("%d fabric links materialized, sparse topology allows ≤ %d", res.Links, ex.maxLinks)
	}
	if ex.minCompletedDen > 0 && res.Completed*ex.minCompletedDen < res.Transfers*ex.minCompletedNum {
		fail("only %d/%d transfers completed, scenario requires ≥ %d/%d",
			res.Completed, res.Transfers, ex.minCompletedNum, ex.minCompletedDen)
	}
	if ex.maxP99 > 0 && res.LatencyP99Ns > int64(ex.maxP99) {
		fail("p99 latency %d ns exceeds the %d ns bound", res.LatencyP99Ns, int64(ex.maxP99))
	}
	if ex.maxPeakInflight > 0 && res.PeakInflight > ex.maxPeakInflight {
		fail("peak inflight %d exceeds the admission bound of %d", res.PeakInflight, ex.maxPeakInflight)
	}
	if ex.minPeakInflight > 0 && res.PeakInflight < ex.minPeakInflight {
		fail("peak inflight only %d, ablation requires > %d to prove unbounded growth",
			res.PeakInflight, ex.minPeakInflight)
	}
}

// Scenario is one named chaos experiment.
type Scenario struct {
	Name string
	Desc string
	// Heavy marks the hundreds-of-nodes scenarios, so -short test runs
	// (and the -race CI leg) can skip them while native runs and the
	// clusterbench trajectory always include them.
	Heavy bool
	run   func(seed int64) Result
}

// finish is the shared scenario epilogue: resolve stragglers, audit,
// close, count surviving regions, attribute phases, check the contract.
func finish(h *harness, res *Result, ex expect) Result {
	h.cancelUnmatched()
	h.drive(32 * rdvTimeout)
	h.audit(res)
	h.close()
	res.LiveRegions = h.fab.Stats().LiveRegions
	h.tracePhases(res)
	check(res, ex)
	return *res
}

// tracePhases fills the Result's span-derived section from the
// scenario's slice of the flight recorder. Runs after close so spans
// the shutdown path finalizes (hung requests killed by Close) are
// included. No-op on untraced runs.
func (h *harness) tracePhases(res *Result) {
	if h.rec == nil {
		return
	}
	rep := analyze.Analyze(h.rec.EventsSince(h.mark))
	res.TraceMessages = len(rep.Messages)
	res.TraceOrphanSpans = rep.OrphanSpans
	for _, name := range rep.PhaseNames() {
		hist := rep.Phases[name]
		res.Phases = append(res.Phases, PhaseStat{
			Phase: name,
			Count: hist.Count(),
			P50Ns: hist.Quantile(0.5),
			P99Ns: hist.Quantile(0.99),
			MaxNs: hist.Max(),
		})
	}
}

// mixSeed derives a scenario-local fault seed so scenarios draw
// independent fault streams from one user seed.
func mixSeed(seed int64, idx int64) int64 {
	return seed*1_000_003 + idx
}

// eagerSize is under the engines' eager threshold; rdvSize is above it
// and rides the rendezvous protocol, which is the only path with
// retransmission — chaos scenarios that drop frames use rdvSize only.
const (
	eagerSize = 2 << 10
	rdvSize   = 24 << 10
)

// runFanout: one root scatters an eager request to every leaf and each
// leaf answers with a rendezvous-sized response — the RPC pattern.
func runFanout(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{Nodes: 17})
	for leaf := 1; leaf < 17; leaf++ {
		h.transfer(0, leaf, 1, eagerSize)
		h.transfer(leaf, 0, 2, rdvSize)
	}
	h.drive(200 * rdvTimeout)
	return finish(h, &res, expect{allComplete: true, maxP99: 100 * rdvTimeout})
}

// runShuffle: every node sends one rendezvous block to every other —
// the all-to-all exchange phase of a distributed sort.
func runShuffle(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{Nodes: 8})
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s != d {
				h.transfer(s, d, uint64(s), rdvSize)
			}
		}
	}
	h.drive(200 * rdvTimeout)
	return finish(h, &res, expect{allComplete: true, maxP99: 100 * rdvTimeout})
}

// runIncast: 32 senders converge on one sink whose ingress port
// serializes — the storage-fan-in storm. 64 gate endpoints on one
// fabric.
func runIncast(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{Nodes: 33, SharedIngress: true})
	for s := 1; s < 33; s++ {
		h.transfer(s, 0, uint64(s), rdvSize)
	}
	h.drive(400 * rdvTimeout)
	return finish(h, &res, expect{allComplete: true, maxP99: 200 * rdvTimeout})
}

// runStraggler: an all-to-all shuffle where one node's NIC runs an
// order of magnitude slower — the slow-disk/hot-VM straggler.
func runStraggler(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{Nodes: 8})
	h.nodes[3].dom.SetCapabilities(fabric.Capabilities{
		Latency:   20 * simtime.Microsecond,
		Bandwidth: 4e8,
		MaxInject: 8 << 10,
		RMA:       true,
	})
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s != d {
				h.transfer(s, d, uint64(s), rdvSize)
			}
		}
	}
	h.drive(400 * rdvTimeout)
	return finish(h, &res, expect{allComplete: true, maxP99: 200 * rdvTimeout})
}

// runFlappingRail: fan-out traffic while the root's NIC flaps — every
// outbound frame lost during the down windows. The handshake timeout
// must carry every transfer across the flaps.
func runFlappingRail(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{Nodes: 9})
	for wave := 0; wave < 3; wave++ {
		for leaf := 1; leaf < 9; leaf++ {
			h.transfer(0, leaf, uint64(wave), rdvSize)
		}
		h.nodes[0].dom.SetFaults(&fabric.FaultConfig{DropProb: 1})
		h.drive(4 * rdvTimeout) // the flap window: everything outbound dies
		h.nodes[0].dom.SetFaults(nil)
		h.drive(100 * rdvTimeout)
	}
	return finish(h, &res, expect{allComplete: true, minRetries: 1})
}

// runPartitionHeal: an all-to-all shuffle cut in half mid-flight; the
// in-flight cross-partition transfers must fail visibly, and after the
// heal a second wave must run clean over the very same gates.
func runPartitionHeal(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{Nodes: 8})
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s != d {
				h.transfer(s, d, 1, rdvSize)
			}
		}
	}
	for i := 4; i < 8; i++ {
		h.nodes[i].dom.SetPartition(1)
	}
	h.drive(300 * rdvTimeout) // cross-partition halves burn their retry budget
	h.cancelUnmatched()       // receives whose RTS (and NACK) died in the cut
	h.drive(32 * rdvTimeout)
	wave1 := len(h.xfers)
	crossFailed := 0
	for _, x := range h.xfers {
		if (x.src < 4) != (x.dst < 4) && x.settled &&
			(x.sreq.Err() != nil || x.rreq.Err() != nil) {
			crossFailed++
		}
	}
	if crossFailed == 0 {
		res.Violations = append(res.Violations, "partition cut no transfer visibly")
	}

	h.fab.Heal()
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s != d {
				h.transfer(s, d, 2, rdvSize)
			}
		}
	}
	h.drive(300 * rdvTimeout)
	out := finish(h, &res, expect{minVisibleFailures: crossFailed})
	// Wave 2 ran entirely after the heal: every one of its transfers
	// must have completed on the same gates the partition poisoned.
	if out.Completed < out.Transfers-wave1 {
		out.Violations = append(out.Violations, "healed gates did not carry a clean second wave")
	}
	return out
}

// runChaosSoup: all-to-all rendezvous traffic through a fabric that
// drops, duplicates, and delays at random. Transfers may fail — but
// only visibly, only without leaks, and retransmission must save most.
func runChaosSoup(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{Nodes: 6, Faults: fabric.FaultConfig{
		Seed:        mixSeed(seed, 7),
		DropProb:    0.1,
		DupProb:     0.05,
		DelayJitter: 30 * simtime.Microsecond,
	}})
	for s := 0; s < 6; s++ {
		for d := 0; d < 6; d++ {
			if s != d {
				h.transfer(s, d, uint64(s*7+d), rdvSize)
			}
		}
	}
	h.drive(600 * rdvTimeout)
	out := finish(h, &res, expect{minRetries: 1})
	if out.Completed < out.Transfers/2 {
		out.Violations = append(out.Violations,
			fmt.Sprintf("only %d/%d transfers survived 10%% loss", out.Completed, out.Transfers))
	}
	return out
}

// runMixedJitter: interleaved eager and rendezvous traffic under heavy
// delay jitter — no loss, so ordering chaos alone must not corrupt
// matching on either path.
func runMixedJitter(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{Nodes: 8, Faults: fabric.FaultConfig{
		Seed:        mixSeed(seed, 11),
		DelayJitter: 200 * simtime.Microsecond,
	}})
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s == d {
				continue
			}
			h.transfer(s, d, uint64(s), eagerSize)
			h.transfer(s, d, uint64(8+s), rdvSize)
		}
	}
	h.drive(400 * rdvTimeout)
	return finish(h, &res, expect{allComplete: true, maxP99: 200 * rdvTimeout})
}

// runBrokenControl is the harness proving itself: rendezvous traffic
// into a permanent partition with every retransmission pushed past the
// horizon. The scenario passes only if the hang invariant trips — if
// this scenario ever "succeeds", the harness has stopped catching hangs.
func runBrokenControl(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{Nodes: 4, noRetransmit: true})
	for d := 1; d < 4; d++ {
		h.nodes[d].dom.SetPartition(1)
	}
	for d := 1; d < 4; d++ {
		h.transfer(0, d, 1, rdvSize)
	}
	h.drive(100 * rdvTimeout)
	return finish(h, &res, expect{expectHang: true})
}

// runRing512: the scale proof — 512 nodes on a ring, each passing an
// eager message to its right neighbor and every 8th node pushing a
// rendezvous block alongside. Clean fabric; what is under test is the
// wiring: 512 links (not the 130k of all-to-all), 1024 gate endpoints,
// full post-quiesce invariants at three decimal orders of magnitude
// more endpoints than the original harness.
func runRing512(seed int64) Result {
	res := Result{Seed: seed}
	n := 512
	h := newHarness(Options{Topo: Ring(n)})
	for i := 0; i < n; i++ {
		h.transfer(i, (i+1)%n, 1, eagerSize)
		if i%8 == 0 {
			h.transfer(i, (i+1)%n, 2, rdvSize)
		}
	}
	h.drive(600 * rdvTimeout)
	return finish(h, &res, expect{allComplete: true, maxLinks: n, maxP99: 400 * rdvTimeout})
}

// runRingGossipLossy: 512-node ring gossip — every node sends eager
// both ways — under 10% frame drop and jitter. Before the eager
// retransmission window existed this traffic class could not touch a
// lossy fabric at all; now nearly all of it must land byte-exact, the
// rest must fail visibly, and the window must demonstrably fire.
func runRingGossipLossy(seed int64) Result {
	res := Result{Seed: seed}
	n := 512
	h := newHarness(Options{
		Topo:       Ring(n),
		RdvRetries: 6,
		Faults: fabric.FaultConfig{
			Seed:        mixSeed(seed, 17),
			DropProb:    0.1,
			DelayJitter: 20 * simtime.Microsecond,
		},
	})
	for i := 0; i < n; i++ {
		h.transfer(i, (i+1)%n, 1, eagerSize)
		h.transfer(i, (i+n-1)%n, 2, eagerSize)
	}
	h.drive(1200 * rdvTimeout)
	return finish(h, &res, expect{
		minEagerRetries: 1,
		maxLinks:        n,
		minCompletedNum: 9, minCompletedDen: 10,
	})
}

// runTreeFlap: fan-out down a 4-ary tree of 85 nodes — eager and
// rendezvous on every edge — while an interior node's NIC flaps to
// full loss mid-run. Its subtree's traffic (and the acks it owes its
// parent) must ride the retransmission machinery across the flap and
// still deliver everything byte-exact.
func runTreeFlap(seed int64) Result {
	res := Result{Seed: seed}
	topo := KaryTree(85, 4)
	h := newHarness(Options{Topo: topo, RdvRetries: 6})
	// The flap is up before any frame moves: everything node 1 owes the
	// fabric — its sends to children 5..8 and the acks it owes node 0 —
	// is eaten until the heal, so the retransmission window must carry
	// its whole subtree across.
	h.nodes[1].dom.SetFaults(&fabric.FaultConfig{DropProb: 1})
	topo.EachEdge(func(parent, child int) {
		h.transfer(parent, child, 1, eagerSize)
		h.transfer(parent, child, 2, rdvSize)
	})
	h.drive(4 * rdvTimeout)
	h.nodes[1].dom.SetFaults(nil)
	h.drive(600 * rdvTimeout)
	return finish(h, &res, expect{
		allComplete: true, maxLinks: topo.Edges(),
		minRetries: 1, minEagerRetries: 1,
	})
}

// runTorusHalo: halo exchange on an 8×8 torus — every node trades an
// eager boundary strip with its right and down neighbors under mild
// jitter. The stencil-code communication pattern, on the topology it
// actually runs on.
func runTorusHalo(seed int64) Result {
	res := Result{Seed: seed}
	topo := Torus2D(8, 8)
	h := newHarness(Options{Topo: topo, Faults: fabric.FaultConfig{
		Seed:        mixSeed(seed, 19),
		DelayJitter: 10 * simtime.Microsecond,
	}})
	cols := 8
	for r := 0; r < 8; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			h.transfer(id, r*cols+(c+1)%cols, 1, eagerSize)
			h.transfer(id, ((r+1)%8)*cols+c, 2, eagerSize)
		}
	}
	h.drive(400 * rdvTimeout)
	return finish(h, &res, expect{allComplete: true, maxLinks: topo.Edges(), maxP99: 200 * rdvTimeout})
}

// runSparseShuffle: a shuffle over a random 4-regular expander of 64
// nodes under 5% drop and jitter — eager one way and rendezvous the
// other on every edge, so both retransmission families work the same
// lossy graph at once.
func runSparseShuffle(seed int64) Result {
	res := Result{Seed: seed}
	topo := RandomRegular(64, 4, mixSeed(seed, 23))
	h := newHarness(Options{
		Topo:       topo,
		RdvRetries: 6,
		Faults: fabric.FaultConfig{
			Seed:        mixSeed(seed, 29),
			DropProb:    0.05,
			DelayJitter: 15 * simtime.Microsecond,
		},
	})
	topo.EachEdge(func(a, b int) {
		h.transfer(a, b, 1, eagerSize)
		h.transfer(b, a, 2, rdvSize)
	})
	h.drive(1200 * rdvTimeout)
	return finish(h, &res, expect{
		minRetries:      1,
		minEagerRetries: 1,
		maxLinks:        topo.Edges(),
		minCompletedNum: 9, minCompletedDen: 10,
	})
}

// runLinkFlap: ring traffic while ONE direction of ONE edge flaps to
// full loss — the per-link fault override, as opposed to the per-NIC
// flap of flapping-rail. Only traffic riding the cut cable (node 5's
// frames and acks toward 6) should need the retransmission window;
// everything must still deliver.
func runLinkFlap(seed int64) Result {
	res := Result{Seed: seed}
	n := 32
	topo := Ring(n)
	h := newHarness(Options{Topo: topo, RdvRetries: 6})
	// Cut 5→6 before traffic moves: node 5's eager frame and RTS toward
	// 6 vanish until the heal, while 6→5 (the other direction of the
	// same cable) and the other 31 edges stay clean.
	h.linkFaults(5, 6, &fabric.FaultConfig{DropProb: 1})
	for i := 0; i < n; i++ {
		h.transfer(i, (i+1)%n, 1, eagerSize)
		h.transfer(i, (i+1)%n, 2, rdvSize)
	}
	h.drive(4 * rdvTimeout)
	h.linkFaults(5, 6, nil)
	h.drive(600 * rdvTimeout)
	return finish(h, &res, expect{
		allComplete: true, maxLinks: n,
		minRetries: 1, minEagerRetries: 1,
	})
}

// runBrokenEager is the eager ablation proving the retransmission
// window is load-bearing: ring gossip through 15% drop with every
// retransmission pushed past the horizon, so a dropped frame or ack is
// never re-sent. The scenario passes only if the hang invariant trips;
// if it ever delivers everything, the reliability layer has stopped
// mattering (or the fault plane has stopped dropping).
func runBrokenEager(seed int64) Result {
	res := Result{Seed: seed}
	n := 16
	h := newHarness(Options{
		Topo:         Ring(n),
		noRetransmit: true,
		Faults: fabric.FaultConfig{
			Seed:     mixSeed(seed, 31),
			DropProb: 0.15,
		},
	})
	for tag := uint64(1); tag <= 3; tag++ {
		for i := 0; i < n; i++ {
			h.transfer(i, (i+1)%n, tag, eagerSize)
		}
	}
	h.drive(100 * rdvTimeout)
	return finish(h, &res, expect{expectHang: true})
}

// postIncastOverload posts the overload deck incast-overload and its
// ablation share: 32 senders each push six rendezvous blocks (6×24 KiB,
// 2.25× the 64 KiB per-gate BDP byte budget) at one shared-ingress
// sink, all up front.
func postIncastOverload(h *harness) {
	for s := 1; s < 33; s++ {
		for t := 0; t < 6; t++ {
			h.transfer(s, 0, uint64(1+t), rdvSize)
		}
	}
}

// runIncastOverload: the incast storm resubmitted at 6× the per-gate
// byte budget under fail-fast admission. Every sender gets exactly two
// rendezvous blocks in flight (2×24 KiB of its 64 KiB BDP budget); the
// other four are rejected at Isend before a single protocol state or
// wire frame materializes. What was admitted must complete byte-exact
// with bounded p99, every reject must surface as ErrAdmissionReject,
// and the sink's state table stays capped by what the senders' credit
// planes let through.
func runIncastOverload(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{
		Nodes: 33, SharedIngress: true,
		Admit:         &admit.Config{},
		AdmitPolicy:   nmad.AdmitReject,
		TrackInflight: true,
	})
	postIncastOverload(h)
	h.drive(400 * rdvTimeout)
	out := finish(h, &res, expect{
		minVisibleFailures: 128,
		maxP99:             200 * rdvTimeout,
		maxPeakInflight:    64,
		minCompletedNum:    1, minCompletedDen: 3,
	})
	if out.AdmitRejected != 128 {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"expected 128 fail-fast rejects (4 of every sender's 6), got %d", out.AdmitRejected))
	}
	return out
}

// runSlowReceiverBackpressure: four senders flood a 10×-degraded sink
// at 4× their gate budgets under the blocking policy — over-budget
// sends park in the admission queue and drain strictly FIFO as the
// slow receiver completes earlier work, so everything lands without
// the sink's state table ever exceeding the admitted window. One extra
// send carries a deadline too short for the backlog: wherever the
// clock catches it — parked, in flight, or at the receiver before the
// RMA read — it must fail with deadline semantics, never hang.
func runSlowReceiverBackpressure(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{
		Nodes:         5,
		Admit:         &admit.Config{},
		AdmitWait:     int64(400 * rdvTimeout),
		TrackInflight: true,
	})
	h.nodes[0].dom.SetCapabilities(fabric.Capabilities{
		Latency:   20 * simtime.Microsecond,
		Bandwidth: 4e8,
		MaxInject: 8 << 10,
		RMA:       true,
	})
	for s := 1; s < 5; s++ {
		for t := 0; t < 8; t++ {
			h.transfer(s, 0, uint64(1+t), rdvSize)
		}
	}
	h.transferDeadline(1, 0, 99, rdvSize, h.fab.Now()+simtime.Time(8*simtime.Microsecond))
	h.drive(600 * rdvTimeout)
	out := finish(h, &res, expect{
		minVisibleFailures: 1,
		maxPeakInflight:    8,
		maxP99:             300 * rdvTimeout,
	})
	if out.Completed != out.Transfers-1 {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"backpressure lost traffic: %d of %d completed, expected all but the doomed deadline send",
			out.Completed, out.Transfers))
	}
	if out.AdmitBlocked != 25 {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"expected 25 parked submissions (6 of every sender's 8, plus the deadline send), got %d",
			out.AdmitBlocked))
	}
	if out.DeadlineExpired == 0 {
		out.Violations = append(out.Violations,
			"the doomed send's deadline never fired")
	}
	return out
}

// runBurstThenDrain: degraded-mode shedding and recovery. Each of 8
// senders bursts four rendezvous blocks plus one eager message at the
// sink; the second block pushes its gate ledger past the 0.5 high
// watermark (2×24 KiB of 64 KiB), so blocks three and four are shed
// while the eager message — and everything already admitted — sails
// through degraded mode. Once the burst drains below the low
// watermark every scope must recover, and a second rendezvous wave
// must admit clean: degradation is a valve, not a ratchet.
func runBurstThenDrain(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{
		Nodes:         9,
		Admit:         &admit.Config{HighWater: 0.5, LowWater: 0.2},
		AdmitPolicy:   nmad.AdmitDegrade,
		TrackInflight: true,
	})
	for s := 1; s < 9; s++ {
		for t := 0; t < 4; t++ {
			h.transfer(s, 0, uint64(1+t), rdvSize)
		}
		h.transfer(s, 0, 9, eagerSize)
	}
	h.drive(200 * rdvTimeout)
	wave1 := len(h.xfers)
	for _, n := range h.nodes {
		if n.eng.AdmitInfo().Degraded {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"node %d still degraded after the burst drained", n.id))
		}
	}
	for s := 1; s < 9; s++ {
		h.transfer(s, 0, 10, rdvSize)
		h.transfer(s, 0, 11, rdvSize)
	}
	h.drive(200 * rdvTimeout)
	out := finish(h, &res, expect{minVisibleFailures: 16, maxPeakInflight: 16})
	if out.AdmitShed != 16 {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"expected 16 degraded-mode sheds (2 of every sender's 4 blocks), got %d", out.AdmitShed))
	}
	for _, x := range h.xfers[wave1:] {
		if x.sreq.Err() != nil || x.rreq.Err() != nil {
			out.Violations = append(out.Violations,
				"recovered scopes did not carry a clean second wave")
			break
		}
	}
	return out
}

// runOverloadAblation: the exact incast-overload deck with admission
// off — the control proving the credit plane is load-bearing. With
// nothing bounding submission, all 192 rendezvous states pile into the
// sink's state table at once; the scenario passes only if the peak
// provably exceeds anything admission would allow.
func runOverloadAblation(seed int64) Result {
	res := Result{Seed: seed}
	h := newHarness(Options{
		Nodes: 33, SharedIngress: true,
		RdvRetries:    6,
		TrackInflight: true,
	})
	postIncastOverload(h)
	h.drive(800 * rdvTimeout)
	return finish(h, &res, expect{allComplete: true, minPeakInflight: 96})
}

// Scenarios returns the full suite in its canonical order.
func Scenarios() []Scenario {
	return []Scenario{
		{"rpc-fanout", "1→16 eager requests, 16 rendezvous replies", false, runFanout},
		{"shuffle", "8-node all-to-all rendezvous exchange", false, runShuffle},
		{"incast", "32→1 rendezvous storm through one shared ingress port", false, runIncast},
		{"straggler", "8-node shuffle with one 10×-degraded NIC", false, runStraggler},
		{"flapping-rail", "fan-out across three full-loss flap windows", false, runFlappingRail},
		{"partition-and-heal", "shuffle cut in half mid-flight, healed, re-run", false, runPartitionHeal},
		{"chaos-soup", "all-to-all under 10% drop + 5% dup + jitter", false, runChaosSoup},
		{"mixed-jitter", "eager+rendezvous mix under heavy reordering jitter", false, runMixedJitter},
		{"broken-control", "no handshake timeout vs a permanent partition (must hang)", false, runBrokenControl},
		{"ring-512", "512-node ring, eager neighbor pass + sparse rendezvous, O(n) links", true, runRing512},
		{"ring-gossip-lossy", "512-node bidirectional ring gossip under 10% drop", true, runRingGossipLossy},
		{"tree-flap", "4-ary fan-out tree of 85 with a flapping interior node", false, runTreeFlap},
		{"torus-halo", "8×8 torus halo exchange under jitter", false, runTorusHalo},
		{"sparse-shuffle", "random 4-regular shuffle of 64 under 5% drop", false, runSparseShuffle},
		{"link-flap", "32-ring with one edge direction cut and healed", false, runLinkFlap},
		{"broken-eager", "no eager retransmission vs 15% drop (must hang)", false, runBrokenEager},
		{"incast-overload", "32→1 storm at 6× the gate budget under fail-fast admission", false, runIncastOverload},
		{"slow-receiver", "blocking admission backpressure into a 10×-degraded sink", false, runSlowReceiverBackpressure},
		{"burst-then-drain", "degraded-mode shedding, recovery, and a clean second wave", false, runBurstThenDrain},
		{"overload-ablation", "the same storm with admission off (must grow unbounded)", false, runOverloadAblation},
	}
}

// Run executes every scenario whose name passes the filter (empty =
// all) with the given seed and returns their results in suite order.
func Run(seed int64, filter func(name string) bool) []Result {
	return RunTraced(seed, filter, nil)
}

// RunTraced is Run with a flight recorder attached to every engine of
// every selected scenario: each harness re-clocks rec onto its fabric's
// virtual time and records task dispatches, steals, rendezvous
// transitions, retransmissions, and rail deaths as the scenario plays.
// Recording is observation-only — a seeded run's results are
// byte-identical with or without rec, and two traced runs of one seed
// drain identical event streams. rec may be nil (plain Run).
func RunTraced(seed int64, filter func(name string) bool, rec *trace.Recorder) []Result {
	var out []Result
	for _, sc := range Scenarios() {
		if filter != nil && !filter(sc.Name) {
			continue
		}
		out = append(out, sc.Run(seed, rec))
	}
	return out
}

// activeTrace hands the recorder from Scenario.Run to newHarness
// without threading it through every scenario's run signature. Package
// scenarios run single-threaded (the driver owns all concurrency), so
// a plain package variable scoped to one Run call is safe.
var activeTrace *trace.Recorder

// Run executes the scenario once under the given seed, attaching the
// optional flight recorder to the harness it builds. Same seed, same
// Result — recording never perturbs the run.
func (s Scenario) Run(seed int64, rec *trace.Recorder) Result {
	if rec != nil {
		activeTrace = rec
		defer func() { activeTrace = nil }()
	}
	r := s.run(seed)
	r.Scenario = s.Name
	r.Description = s.Desc
	return r
}
