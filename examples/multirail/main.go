// Multirail: capability-aware striping over heterogeneous rails, and
// the receiver-driven zero-copy rendezvous.
//
// Two engines are connected by two simulated RDMA rails with very
// different envelopes — an 8 GB/s low-latency rail and a 1 GB/s
// high-latency one, the shape of the paper's BORDERLINE nodes carrying
// both ConnectX IB and Myri-10G. A large message is sent twice. Each
// time the RTS offers per-rail remote keys, and the receiver stripes
// and RMA-reads the chunks straight out of the sender's user buffer:
// once with the seed's even striping (the rails hide their bandwidth,
// so half the payload rides each and the slow rail dominates
// completion), once with capability-aware striping (chunks
// proportional to per-rail bandwidth, so both rails finish together).
// The fabric's virtual clock reports the modelled transfer times, its
// copy counters prove where the bytes moved — host memcpy vs. NIC DMA
// — and the per-rail statistics show where they went. Small messages
// ride the lowest-latency rail either way. Progression is driven from
// this goroutine, so every run prints the same numbers.
//
// Run with: go run ./examples/multirail
package main

import (
	"fmt"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/nmad"
	"pioman/internal/simtime"
)

var (
	fastCaps = fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 8e9, MaxInject: 16 << 10, RMA: true}
	slowCaps = fabric.Capabilities{Latency: 5 * simtime.Microsecond, Bandwidth: 1e9, MaxInject: 16 << 10, RMA: true}
)

// evenRail hides a rail's bandwidth, so striping over it splits
// equally — the seed behaviour. The modelled timing still comes from
// the domain, and the RMA and Domain faces are promoted.
type evenRail struct{ *fabric.SimEndpoint }

func (r evenRail) Capabilities() fabric.Capabilities {
	caps := r.SimEndpoint.Capabilities()
	caps.Bandwidth = 0
	return caps
}

// result is one transfer configuration's outcome.
type result struct {
	time     simtime.Duration
	sendGate *nmad.Gate
	recvGate *nmad.Gate
	sent     nmad.Stats
	recv     nmad.Stats
	sim      fabric.SimStats
}

// transfer sends one large payload over a fresh fast+slow gate pair.
// The receiver stripes its reads, so even hides bandwidth there (and,
// for symmetry, on the sender's rails too).
func transfer(even bool, payload []byte) result {
	f := fabric.NewSimFabric(fabric.SimConfig{}) // free-running virtual time
	var sEps, rEps []fabric.Endpoint
	for _, caps := range []fabric.Capabilities{fastCaps, slowCaps} {
		ea, eb := fabric.Connect(f.OpenDomain(caps), f.OpenDomain(caps))
		if even {
			sEps, rEps = append(sEps, evenRail{ea}), append(rEps, evenRail{eb})
		} else {
			sEps, rEps = append(sEps, ea), append(rEps, eb)
		}
	}

	// No progression context: the loop below is all the progress there is.
	sender := nmad.NewEngine(nmad.Config{Tasks: core.New(core.Config{})})
	receiver := nmad.NewEngine(nmad.Config{Tasks: core.New(core.Config{})})
	defer sender.Close()
	defer receiver.Close()
	gs, err := sender.NewGateEndpoints(sEps...)
	if err != nil {
		panic(err)
	}
	gr, err := receiver.NewGateEndpoints(rEps...)
	if err != nil {
		panic(err)
	}
	send := func(tag uint64, data []byte) {
		rreq := gr.Irecv(tag)
		sreq := gs.Isend(tag, data)
		for !(rreq.Test() && sreq.Test()) {
			sender.Tasks().Schedule(0)
			receiver.Tasks().Schedule(0)
		}
		if err := sreq.Err(); err != nil {
			panic(err)
		}
		if err := rreq.Err(); err != nil {
			panic(err)
		}
	}

	// A few small messages first: they ride the lowest-latency rail.
	for i := 0; i < 4; i++ {
		send(uint64(i), []byte(fmt.Sprintf("ctl-%d", i)))
	}
	small := simtime.Duration(f.Now())
	send(99, payload)
	return result{
		time:     simtime.Duration(f.Now()) - small,
		sendGate: gs, recvGate: gr,
		sent: sender.Stats(), recv: receiver.Stats(),
		sim: f.Stats(),
	}
}

func main() {
	payload := make([]byte, 8<<20)
	fmt.Printf("8 MiB over two rails: 8 GB/s @ 1µs  +  1 GB/s @ 5µs\n\n")

	even := transfer(true, payload)
	capAware := transfer(false, payload)

	show := func(name string, r result) {
		fmt.Printf("%-28s %10v modelled transfer\n", name, simtime.Time(r.time))
		for i, rs := range r.sendGate.RailStats() {
			pull := r.recvGate.RailStats()[i].PullBytes
			fmt.Printf("  rail %d (%s, %s): %d frames, %.2f MiB pulled\n",
				i, rs.Provider, []fabric.Capabilities{fastCaps, slowCaps}[i], rs.Frames,
				float64(pull)/(1<<20))
		}
	}
	show("even striping", even)
	show("capability-aware striping", capAware)

	fmt.Printf("\ncapability-aware completes in %.0f%% of even striping's time\n",
		100*float64(capAware.time)/float64(even.time))
	fmt.Printf("(rendezvous handshakes: %d, eager sends: %d)\n",
		capAware.sent.RdvStarted, capAware.sent.EagerSent)

	fmt.Printf("\ncopy counters, capability-aware split (8 MiB payload):\n")
	fmt.Printf("  staged(host) %.1f MiB, recv-memcpy %.1f MiB, DMA(read) %.1f MiB\n",
		float64(capAware.sim.StagedCopiedBytes)/(1<<20),
		float64(capAware.recv.RecvCopiedBytes)/(1<<20),
		float64(capAware.sim.RMAReadBytes)/(1<<20))
	fmt.Printf("  (%d RMA reads, %d FIN; registrations interned by the cache: %d)\n",
		capAware.recv.RdvPulls, capAware.recv.RdvFins, capAware.sim.Registrations)

	fmt.Println("\n=> chunk sizes proportional to per-rail bandwidth make both rails finish together,")
	fmt.Println("   and the receiver-driven rendezvous moves them with zero host copies on either side")
}
