// Package cluster is the deterministic cluster chaos harness: it runs
// tens to hundreds of nmad engines — one per simulated node — over a
// single seeded fabric.SimFabric and virtual clock, drives scripted
// traffic mixes (RPC fan-out, all-to-all shuffle, incast, stragglers,
// ring gossip, tree fan-out, halo exchange) through seeded fault
// injection (frame drop/duplication/jitter, flapping NICs and links,
// partitions), and checks hard invariants after every scenario
// quiesces: no hung requests, no leaked protocol state or pinned
// registrations, byte-exact delivery, and bounded virtual-time latency
// percentiles.
//
// Scale comes from sparsity: a scenario declares a Topo (ring, k-ary
// tree, 2D torus, random d-regular) and the harness materializes links
// lazily along its edges only — a 512-node ring costs 512 links, not
// the 130k of all-to-all — while refusing off-graph traffic, so the
// O(edges) bound is enforced rather than hoped for.
//
// Everything is deterministic by construction: the fabric's fault RNG
// is seeded, all engines share one virtual clock and one task engine
// driven from a single goroutine, and every retransmission path in
// nmad orders its wire actions. The same seed therefore produces the
// same BENCH trajectory byte for byte — which is what makes a chaos
// run a regression test instead of a dice roll.
package cluster

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"pioman/internal/admit"
	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/nmad"
	"pioman/internal/simtime"
	"pioman/internal/stats"
	"pioman/internal/topology"
	"pioman/internal/trace"
)

// Virtual-time constants every scenario shares: the rendezvous
// handshake timeout and the clock step the driver uses to expire it
// when the wire goes quiet.
const (
	rdvTimeout = 2 * simtime.Millisecond
	driveTick  = rdvTimeout / 4
)

// defaultCaps is the per-node NIC envelope: a microsecond-scale
// RDMA-capable rail, eager up to 8 KiB.
func defaultCaps() fabric.Capabilities {
	return fabric.Capabilities{
		Latency:   2 * simtime.Microsecond,
		Bandwidth: 4e9,
		MaxInject: 8 << 10,
		RMA:       true,
	}
}

// Options parameterizes a harness build.
type Options struct {
	// Nodes is the cluster size (≥ 2). Ignored when Topo is set — the
	// topology's node count wins.
	Nodes int
	// Topo declares the cluster's sparse connectivity. When set, the
	// harness enforces it: a transfer between non-neighbors panics
	// instead of silently materializing a link, so a scenario's link
	// count provably stays O(edges). Nil keeps the original free-form
	// wiring (dense scenarios).
	Topo *Topo
	// Faults is the fabric-wide seeded fault configuration.
	Faults fabric.FaultConfig
	// SharedIngress serializes each node's inbound frames through one
	// ingress port — the incast model.
	SharedIngress bool
	// noRetransmit pushes every engine's retransmission deadline past
	// any scenario's horizon, so nothing lost is ever re-sent: the two
	// negative scenarios (broken-control, broken-eager) must then hang.
	noRetransmit bool
	// RdvRetries overrides the per-engine retry budget (0 → 4). Lossy
	// high-drop scenarios raise it so independent per-hop loss cannot
	// exhaust a transfer's budget by bad luck alone.
	RdvRetries int
	// Caps overrides the per-node NIC envelope (zero value → default).
	Caps fabric.Capabilities
	// Trace attaches a flight recorder to the shared task engine and
	// every node's nmad engine, re-clocked onto the fabric's virtual
	// time, so a scenario can be replayed as a chrome://tracing
	// timeline. Observation only: attaching it must not perturb a
	// seeded run. Nil falls back to the recorder RunTraced installs.
	Trace *trace.Recorder
	// Admit enables engine-level admission control on every node: each
	// engine gets its own credit plane built from this config (gate
	// budgets left zero derive from the live rail BDP). Nil keeps
	// admission off — the ablation, and the default every pre-existing
	// scenario runs under so seeded trajectories stay byte-identical.
	Admit *admit.Config
	// AdmitPolicy selects what an over-budget submission sees: block
	// (the zero value), fail-fast reject, or degraded-mode shedding.
	AdmitPolicy nmad.AdmitPolicy
	// AdmitWait bounds how long the blocking policy parks a submission,
	// in virtual nanoseconds (0 → the engines' rendezvous timeout).
	AdmitWait int64
	// TrackInflight samples every node's live protocol-state count on
	// each driver step and records the cluster-wide per-node peak — the
	// "queue depth" the overload scenarios assert is bounded with
	// admission on and unbounded in the ablation.
	TrackInflight bool
}

// node is one simulated cluster member: an nmad engine with one NIC
// domain; links to peers materialize on demand.
type node struct {
	id     int
	dom    *fabric.SimDomain
	eng    *nmad.Engine
	gateTo map[int]*nmad.Gate
	epTo   map[int]*fabric.SimEndpoint
}

// xfer is one tracked transfer with its deterministic payload.
type xfer struct {
	src, dst int
	tag      uint64
	payload  []byte
	sreq     *nmad.Request
	rreq     *nmad.Request
	postedAt simtime.Time
	settled  bool
	doneAt   simtime.Time
}

// harness owns one scenario's cluster: fabric, nodes, traffic ledger.
type harness struct {
	fab    *fabric.SimFabric
	tasks  *core.Engine
	ncpu   int
	topo   *Topo
	nodes  []*node
	ngates int
	xfers  []*xfer
	hist   stats.Histogram // completed-transfer latency, virtual ns
	closed bool

	// trackInflight/peakInflight implement Options.TrackInflight: the
	// highest InflightStates any single node reached during drive.
	trackInflight bool
	peakInflight  int

	// rec and mark slice the (suite-shared) flight recorder to this
	// scenario: mark is taken at harness build, so EventsSince(mark)
	// yields exactly this scenario's span stream for phase attribution.
	rec  *trace.Recorder
	mark trace.Mark
}

// newHarness builds the cluster: one fabric, one shared task engine
// (stealing off — the driver is single-threaded and scheduling order
// must replay), one engine per node on the fabric's clock.
func newHarness(opt Options) *harness {
	caps := opt.Caps
	if caps == (fabric.Capabilities{}) {
		caps = defaultCaps()
	}
	if opt.Topo != nil {
		opt.Nodes = opt.Topo.Nodes()
	}
	if opt.RdvRetries <= 0 {
		opt.RdvRetries = 4
	}
	timeout := int64(rdvTimeout)
	if opt.noRetransmit {
		timeout = math.MaxInt64 / 4
	}
	topo, err := topology.Build(topology.Spec{
		Name:            "cluster-driver",
		NUMANodes:       1,
		PackagesPerNUMA: 1,
		CoresPerPackage: 2,
	})
	if err != nil {
		panic(err)
	}
	h := &harness{
		fab: fabric.NewSimFabric(fabric.SimConfig{
			Faults:        opt.Faults,
			SharedIngress: opt.SharedIngress,
		}),
		ncpu:          topo.NCPUs,
		topo:          opt.Topo,
		trackInflight: opt.TrackInflight,
	}
	clock := func() int64 { return int64(h.fab.Now()) }
	rec := opt.Trace
	if rec == nil {
		rec = activeTrace
	}
	if rec != nil {
		rec.SetClock(clock)
	}
	h.rec = rec
	h.mark = rec.Mark()
	h.tasks = core.New(core.Config{ // no progression context: drive steps it
		Topology:     topo,
		LatencyStats: true,
		Trace:        rec,
		Clock:        clock,
	})
	for i := 0; i < opt.Nodes; i++ {
		h.nodes = append(h.nodes, &node{
			id:  i,
			dom: h.fab.OpenDomain(caps),
			eng: nmad.NewEngine(nmad.Config{
				Tasks:       h.tasks,
				RdvTimeout:  timeout,
				RdvRetries:  opt.RdvRetries,
				Trace:       rec,
				Admit:       opt.Admit,
				AdmitPolicy: opt.AdmitPolicy,
				AdmitWait:   opt.AdmitWait,
			}),
			gateTo: make(map[int]*nmad.Gate),
			epTo:   make(map[int]*fabric.SimEndpoint),
		})
	}
	return h
}

// link ensures a connection between two nodes exists and returns src's
// gate toward dst. Under a declared topology, only edges of the graph
// may materialize — a scenario reaching off-graph is a bug, and
// panicking here is what keeps a sparse run's link count O(edges).
func (h *harness) link(src, dst int) *nmad.Gate {
	a, b := h.nodes[src], h.nodes[dst]
	if g := a.gateTo[dst]; g != nil {
		return g
	}
	if h.topo != nil && !h.topo.HasEdge(src, dst) {
		panic(fmt.Sprintf("cluster: %d→%d is not an edge of topology %s", src, dst, h.topo.Name()))
	}
	ea, eb := fabric.Connect(a.dom, b.dom)
	ga, err := a.eng.NewGateEndpoints(ea)
	if err != nil {
		panic(fmt.Sprintf("cluster: gate %d→%d: %v", src, dst, err))
	}
	gb, err := b.eng.NewGateEndpoints(eb)
	if err != nil {
		panic(fmt.Sprintf("cluster: gate %d→%d: %v", dst, src, err))
	}
	// Span ids carry cluster node indices, so the sender- and
	// receiver-side spans of one message correlate across engines.
	ga.SetTraceInfo(src, dst)
	gb.SetTraceInfo(dst, src)
	a.gateTo[dst] = ga
	b.gateTo[src] = gb
	a.epTo[dst] = ea
	b.epTo[src] = eb
	h.ngates += 2
	return ga
}

// linkFaults overrides the fault config of src's outbound direction
// toward dst only — one side of one edge — materializing the link
// first if needed. nil restores the default. This is how a sparse
// scenario flaps a single cable without touching the node's other
// links.
func (h *harness) linkFaults(src, dst int, fc *fabric.FaultConfig) {
	h.link(src, dst)
	h.nodes[src].epTo[dst].SetFaults(fc)
}

// pattern fills one transfer's payload deterministically from its
// (src, dst, tag) identity, so the receiver can verify byte-exact
// delivery without any side channel.
func pattern(src, dst int, tag uint64, size int) []byte {
	p := make([]byte, size)
	seed := byte(src*7 + dst*13 + int(tag)*31)
	for i := range p {
		p[i] = seed + byte(i*131+i>>9)
	}
	return p
}

// transfer posts one tracked src→dst message: the receive first, then
// the send, both on the same link.
func (h *harness) transfer(src, dst int, tag uint64, size int) *xfer {
	gs := h.link(src, dst)
	gr := h.nodes[dst].gateTo[src]
	x := &xfer{
		src: src, dst: dst, tag: tag,
		payload:  pattern(src, dst, tag, size),
		postedAt: h.fab.Now(),
	}
	x.rreq = gr.Irecv(tag)
	x.sreq = gs.Isend(tag, x.payload)
	h.xfers = append(h.xfers, x)
	return x
}

// transferDeadline is transfer with an absolute send deadline on the
// virtual clock: the send is abandoned wherever the deadline catches it
// — parked in the admission queue, awaiting its handshake, or at the
// receiver before the RMA read is posted.
func (h *harness) transferDeadline(src, dst int, tag uint64, size int, deadline simtime.Time) *xfer {
	gs := h.link(src, dst)
	gr := h.nodes[dst].gateTo[src]
	x := &xfer{
		src: src, dst: dst, tag: tag,
		payload:  pattern(src, dst, tag, size),
		postedAt: h.fab.Now(),
	}
	x.rreq = gr.Irecv(tag)
	x.sreq = gs.IsendDeadline(tag, x.payload, int64(deadline))
	h.xfers = append(h.xfers, x)
	return x
}

// step runs a few scheduling passes over every driver CPU, collecting
// settled transfers between passes so completion stamps track the
// virtual clock as finely as the drive loop can see it.
func (h *harness) step() int {
	n := 0
	for pass := 0; pass < 4; pass++ {
		for cpu := 0; cpu < h.ncpu; cpu++ {
			h.tasks.Schedule(cpu)
		}
		n += h.collect()
	}
	return n
}

// collect records transfers that settled since the last pass and
// returns how many did.
func (h *harness) collect() int {
	n := 0
	for _, x := range h.xfers {
		if x.settled || !x.sreq.Test() || !x.rreq.Test() {
			continue
		}
		x.settled = true
		x.doneAt = h.fab.Now()
		n++
		if x.sreq.Err() == nil && x.rreq.Err() == nil {
			h.hist.Record(int64(x.doneAt - x.postedAt))
		}
	}
	return n
}

// settledAll reports whether every posted transfer has resolved.
func (h *harness) settledAll() bool {
	for _, x := range h.xfers {
		if !x.settled {
			return false
		}
	}
	return true
}

// drive progresses the cluster until every transfer resolves or the
// virtual-time budget runs out. The clock only jumps when a full
// scheduling pass moved nothing — while traffic flows, time advances
// through the fabric's own event horizon.
func (h *harness) drive(budget simtime.Duration) {
	limit := h.fab.Now() + simtime.Time(budget)
	for !h.settledAll() && h.fab.Now() <= limit {
		h.sampleInflight()
		before := h.fab.Now()
		if h.step() == 0 && h.fab.Now() == before {
			h.fab.Advance(driveTick)
		}
	}
	h.sampleInflight()
}

// sampleInflight records the highest per-node protocol-state count seen
// so far (Options.TrackInflight). The overload scenarios gate on the
// peak: admission keeps it at the credit budget, the ablation lets the
// sink's state table grow with everything the senders could post.
func (h *harness) sampleInflight() {
	if !h.trackInflight {
		return
	}
	for _, n := range h.nodes {
		if v := n.eng.InflightStates(); v > h.peakInflight {
			h.peakInflight = v
		}
	}
}

// cancelUnmatched withdraws receives whose sender gave up (or never
// reached them); matched receives are left to resolve on their own.
func (h *harness) cancelUnmatched() {
	for _, x := range h.xfers {
		if !x.rreq.Test() {
			x.rreq.Cancel()
		}
	}
}

// close shuts every engine down. Safe to call once.
func (h *harness) close() {
	if h.closed {
		return
	}
	h.closed = true
	for _, n := range h.nodes {
		n.eng.Close()
	}
}

// audit fills the outcome and leak sections of a Result from the
// settled cluster. Must run before close (gate state is live) — the
// caller adds the post-close live-region count afterwards.
func (h *harness) audit(res *Result) {
	for _, x := range h.xfers {
		res.Transfers++
		switch {
		case !x.sreq.Test() || !x.rreq.Test():
			res.Hung++
		case x.sreq.Err() == nil && x.rreq.Err() == nil:
			if bytes.Equal(x.rreq.Data, x.payload) {
				res.Completed++
				res.BytesDelivered += int64(len(x.payload))
			} else {
				res.Corrupt++
			}
		case x.rreq.Err() == nmad.ErrCanceled:
			res.Canceled++
		default:
			res.FailedVisibly++
		}
		// Count admission-reject errors per request, not per transfer:
		// the invariant is that every rejection the engines counted
		// surfaced as exactly one visible error (never a silent drop,
		// never a hang).
		if x.sreq.Err() == nmad.ErrAdmissionReject {
			res.AdmitRejectErrors++
		}
		if x.rreq.Err() == nmad.ErrAdmissionReject {
			res.AdmitRejectErrors++
		}
	}
	for _, n := range h.nodes {
		peers := make([]int, 0, len(n.gateTo))
		for p := range n.gateTo {
			peers = append(peers, p)
		}
		sort.Ints(peers)
		for _, p := range peers {
			rep := n.gateTo[p].CheckIdle()
			res.LeakedStates += rep.SendRendezvous + rep.RecvRendezvous +
				rep.PostedRecvs + rep.UnexpectedMsgs + rep.PendingAggr +
				rep.EagerPending
			res.LeakedRegs += rep.RegInFlight
			// The zero-leaked-credits invariant: a quiesced gate holds no
			// request credits, no byte credits, and no parked submissions.
			// Any nonzero term is a leak, so one summed indicator suffices.
			res.LeakedCredits += int64(rep.AdmitRequests) + rep.AdmitBytes +
				int64(rep.AdmitWaiting)
		}
		st := n.eng.Stats()
		res.RdvRetries += st.RdvRetries
		res.RdvTimeouts += st.RdvTimeouts
		res.EagerRetries += st.EagerRetries
		res.EagerTimeouts += st.EagerTimeouts
		res.AdmitAdmitted += st.AdmitAdmitted
		res.AdmitRejected += st.AdmitRejected
		res.AdmitShed += st.AdmitShed
		res.AdmitBlocked += st.AdmitBlocked
		res.AdmitExpired += st.AdmitExpired
		res.DeadlineExpired += st.DeadlineExpired
	}
	fst := h.fab.Stats()
	res.DroppedFrames = fst.DroppedFrames
	res.DupFrames = fst.DuplicatedFrames
	res.DroppedReads = fst.DroppedReads
	res.Links = fst.Links
	res.GateEndpoints = h.ngates
	res.Nodes = len(h.nodes)
	res.LatencyP50Ns = h.hist.Quantile(0.5)
	res.LatencyP99Ns = h.hist.Quantile(0.99)
	res.LatencyMaxNs = h.hist.Max()
	res.VirtualNs = int64(h.fab.Now())
	res.PeakInflight = h.peakInflight
}
