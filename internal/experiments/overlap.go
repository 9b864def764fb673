package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/nmad"
	"pioman/internal/simtime"
	"pioman/internal/stats"
	"pioman/internal/topology"
)

// Progression says who drives the nmad engine's tasks — the one axis the
// paper's evaluation isolates.
type Progression int

const (
	// InCall progresses communication only inside the library's calls
	// (post and wait), as MVAPICH and OpenMPI do.
	InCall Progression = iota
	// Background progresses it all the time from outside the calling
	// thread — PIOMan's idle cores and timer ticks.
	Background
)

// String names the policy's curve after the libraries the paper plots.
func (p Progression) String() string {
	return [...]string{"in-call (MVAPICH/OpenMPI-like)", "PIOMan"}[p]
}

// progressions are the curves of Figures 4-7.
var progressions = []Progression{InCall, Background}

// ComputeSide says which process computes between the non-blocking call
// and its Wait in the overlap benchmark [Shet et al., 2008].
type ComputeSide int

const (
	// ComputeSender: computation on the sender (paper Figure 5).
	ComputeSender ComputeSide = iota
	// ComputeReceiver: computation on the receiver (Figure 6).
	ComputeReceiver
	// ComputeBoth: computation on both sides (Figure 7).
	ComputeBoth
)

// String names the side as in the figure captions.
func (s ComputeSide) String() string {
	return [...]string{"the sender side", "the receiver side", "both sides"}[s]
}

// overlapSlack bounds the virtual time a measurement may take beyond its
// computation: far above any transfer here, far below the engines' 500 ms
// retransmission timer, which therefore never fires.
const overlapSlack = 50 * simtime.Millisecond

// overlapNode is one process of the two-node rig: an nmad engine that
// progresses only when the driver runs a pass of its one-CPU task
// engine.
type overlapNode struct {
	eng  *nmad.Engine
	ep   *fabric.SimEndpoint
	gate *nmad.Gate
	idle int // tasks queued at rest: the rail's poll and the sweeper

	req        *nmad.Request
	computeEnd simtime.Time // the node's host computes until then
	done       bool
}

func newOverlapNode(fab *fabric.SimFabric, topo *topology.Topology, ep *fabric.SimEndpoint) (n *overlapNode, err error) {
	n = &overlapNode{ep: ep, eng: nmad.NewEngine(nmad.Config{
		Tasks:          core.New(core.Config{Topology: topo}),
		NoAutoProgress: true,
		Clock:          func() int64 { return int64(fab.Now()) },
	})}
	n.gate, err = n.eng.NewGateEndpoints(ep)
	n.idle = n.eng.Tasks().Pending()
	return n, err
}

// RunOverlap runs one overlap measurement on two real nmad engines over
// a free-running simulated InfiniBand rail: a non-blocking transfer of
// size bytes, compute for computeUS µs on the given side(s), then wait.
// Computing is virtual time during which a node's engine is scheduled
// (Background) or left alone (InCall). The result is Tcomp / Ttotal on
// the computing side (the slower one for ComputeBoth), exact and
// repeatable: only the fabric's virtual clock is read. A transfer not
// byte-exact, zero-copy, retransmission-free and leak-free is an error.
func RunOverlap(policy Progression, side ComputeSide, size int, computeUS float64) (ratio float64, err error) {
	topo, err := topology.Build(topology.Spec{Name: "overlap-node", NUMANodes: 1, PackagesPerNUMA: 1, CoresPerPackage: 1})
	if err != nil {
		return 0, err
	}
	// The evaluation clusters' InfiniBand DDR rail.
	ibDDR := fabric.Capabilities{Latency: 1300 * simtime.Nanosecond, Bandwidth: 1.5e9, MaxInject: 16 << 10, RMA: true}
	fab := fabric.NewSimFabric(fabric.SimConfig{}) // its clock starts at 0
	es, er := fabric.Connect(fab.OpenDomain(ibDDR), fab.OpenDomain(ibDDR))
	snd, err := newOverlapNode(fab, topo, es)
	defer snd.eng.Close()
	if err != nil {
		return 0, err
	}
	rcv, err := newOverlapNode(fab, topo, er)
	defer rcv.eng.Close()
	if err != nil {
		return 0, err
	}

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*131 + i>>9)
	}
	compute := simtime.Duration(computeUS * 1000)
	if side != ComputeReceiver {
		snd.computeEnd = compute
	}
	if side != ComputeSender {
		rcv.computeEnd = compute
	}
	// Both calls return at once. The send's own call is a library call
	// under either policy and puts the RTS on the wire.
	rcv.req = rcv.gate.IrecvInto(1, make([]byte, size))
	snd.req = snd.gate.Isend(1, payload)
	snd.eng.Tasks().Schedule(0)

	var total simtime.Duration // of the computing side; the slower of two
	for !(snd.done && rcv.done) {
		if fab.Now() > compute+overlapSlack {
			return 0, fmt.Errorf("not complete after %v of virtual time", fab.Now())
		}
		busy, wake := false, simtime.Time(0)
		for _, n := range []*overlapNode{rcv, snd} {
			if policy == InCall && fab.Now() < n.computeEnd {
				wake = n.computeEnd // host busy, library not entered
				continue
			}
			n.eng.Tasks().Schedule(0)
			// Still an operation in flight, a completion to poll, a task to run?
			busy = busy || n.ep.Backlog() > 0 || n.eng.Tasks().Pending() > n.idle
			if !n.done && n.req.Test() {
				n.done = true
				if n.computeEnd > 0 {
					total = max(total, fab.Now(), n.computeEnd)
				}
			}
		}
		// A poll fast-forwards the clock to the next completion anywhere
		// on the fabric, so with nothing in flight and nothing queued only
		// a computing host holds the transfer up: assert that it finishes.
		if !busy && !(snd.done && rcv.done) {
			if wake == 0 {
				return 0, fmt.Errorf("stalled at %v", fab.Now())
			}
			fab.Advance(wake - fab.Now())
		}
	}

	sst, rst := snd.eng.Stats(), rcv.eng.Stats()
	switch {
	case snd.req.Err() != nil || rcv.req.Err() != nil:
		return 0, fmt.Errorf("transfer failed: send %v, recv %v", snd.req.Err(), rcv.req.Err())
	case !bytes.Equal(rcv.req.Data, payload):
		return 0, fmt.Errorf("payload corrupted")
	case !snd.gate.CheckIdle().Clean() || !rcv.gate.CheckIdle().Clean():
		return 0, fmt.Errorf("leaked protocol state: send %+v, recv %+v", snd.gate.CheckIdle(), rcv.gate.CheckIdle())
	case rst.RecvCopiedBytes != 0:
		return 0, fmt.Errorf("receive path copied %d B: not the zero-copy pull rendezvous", rst.RecvCopiedBytes)
	case sst.RdvRetries+rst.RdvRetries != 0:
		return 0, fmt.Errorf("a retransmission timer fired")
	}
	snd.eng.Close()
	rcv.eng.Close()
	if live := fab.Stats().LiveRegions; live != 0 {
		return 0, fmt.Errorf("%d memory regions still registered after Close", live)
	}
	return float64(compute) / float64(max(total, 1)), nil // total is 0 only when compute is
}

// overlapPanels are the two panels of each overlap figure with the
// paper's x-axis (computation time in µs) for each message size.
var overlapPanels = []struct {
	name  string
	size  int
	sweep []float64
}{
	{"32 KB", 32 << 10, []float64{0, 12.5, 25, 50, 75, 100, 125, 150, 175, 200}},
	{"1 MB", 1 << 20, []float64{0, 125, 250, 500, 750, 1000, 1250, 1500, 1750, 2000}},
}

// renderOverlap renders both panels of one overlap figure, one curve per
// progression policy.
func renderOverlap(side ComputeSide, shape string) func() (string, error) {
	return func() (string, error) {
		var b strings.Builder
		for _, panel := range overlapPanels {
			fig := stats.Figure{
				Title:  fmt.Sprintf("Overlap, computation on %v, %s", side, panel.name),
				XLabel: "computation time (µs)",
				YLabel: "overlap ratio",
			}
			for _, policy := range progressions {
				s := fig.AddSeries(policy.String())
				for _, comp := range panel.sweep {
					ratio, err := RunOverlap(policy, side, panel.size, comp)
					if err != nil {
						return "", fmt.Errorf("%v, %s, %v µs: %w", policy, panel.name, comp, err)
					}
					s.Add(comp, ratio)
				}
			}
			b.WriteString(fig.String())
			b.WriteByte('\n')
		}
		b.WriteString(shape)
		return b.String(), nil
	}
}

func init() {
	for i, shape := range []string{
		"Paper shape: every library overlaps on the sender side — the RDMA-Read\n" +
			"rendezvous lets the receiver pull data without the sender's host.\n",
		"Paper shape: MVAPICH and OpenMPI do not overlap when the receiver\n" +
			"computes (ratio saturates at Tcomp/(Tcomp+Txfer)); PIOMan's background\n" +
			"progression drives the handshake and reaches ratios near 1.\n",
		"Paper shape: baselines overlap only the sender side, so the receiver\n" +
			"side serializes; PIOMan overlaps both and approaches ratio 1.\n",
	} {
		side := ComputeSide(i) // Figures 5, 6, 7 in order
		register(Experiment{
			ID:          fmt.Sprintf("fig%d", 5+i),
			Paper:       fmt.Sprintf("Figure %d", 5+i),
			Description: fmt.Sprintf("Overlap benchmark, computation on %v (32 KB and 1 MB panels).", side),
			Run:         renderOverlap(side, shape),
		})
	}
}
