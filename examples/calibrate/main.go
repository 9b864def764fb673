// Command calibrate demonstrates online rail calibration: a gate over
// two simulated RDMA rails whose capabilities it was never told —
// an 8 GB/s rail and a 1 GB/s rail, published as all-zero envelopes —
// converges to capability-aware striping purely from observed
// completion timings, then re-converges after the two rails swap
// effective bandwidths mid-stream.
//
// The receiver stripes its RMA reads — the thing being calibrated —
// across the two rails, and its calibrators learn each rail's
// bandwidth from the reads' completions and its latency from the small
// frames it sends. Progression is driven from this goroutine on a
// free-running virtual clock, so the run is deterministic and the
// printed times are exact modelled durations.
// Three configurations are compared on the same workload: even
// striping (the seed behaviour: the rails hide their bandwidth), the
// oracle (capability-aware striping told the true envelopes up front),
// and the calibrated gate that has to find them out.
//
// Run with: go run ./examples/calibrate
package main

import (
	"fmt"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/nmad"
	"pioman/internal/simtime"
	"pioman/internal/stats"
)

var (
	fastCaps = fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 8e9, MaxInject: 16 << 10, RMA: true}
	slowCaps = fabric.Capabilities{Latency: 2 * simtime.Microsecond, Bandwidth: 1e9, MaxInject: 16 << 10, RMA: true}
)

// evenRail hides a rail's bandwidth, so striping over it splits
// equally — the seed behaviour. The modelled timing still comes from
// the domain.
type evenRail struct{ *fabric.SimEndpoint }

func (r evenRail) Capabilities() fabric.Capabilities {
	caps := r.SimEndpoint.Capabilities()
	caps.Bandwidth = 0
	return caps
}

// rig is one sender/receiver pair over the fast+slow rail pair.
type rig struct {
	f                *fabric.SimFabric
	sender, receiver *nmad.Engine
	ga, gb           *nmad.Gate
	doms             [2][2]*fabric.SimDomain
}

func newRig(calibrate, even bool) *rig {
	r := &rig{f: fabric.NewSimFabric(fabric.SimConfig{SendCompletions: true})}
	var sEps, rEps [2]fabric.Endpoint
	for i, caps := range []fabric.Capabilities{fastCaps, slowCaps} {
		a := r.f.OpenDomain(caps)
		b := r.f.OpenDomain(caps)
		ea, eb := fabric.Connect(a, b)
		sEps[i], rEps[i] = ea, eb
		if even {
			rEps[i] = evenRail{eb}
		}
		r.doms[i] = [2]*fabric.SimDomain{a, b}
	}
	// No progression context: the driver's Schedule calls are all the
	// progress there is.
	r.sender = nmad.NewEngine(nmad.Config{Tasks: core.New(core.Config{})})
	r.receiver = nmad.NewEngine(nmad.Config{Tasks: core.New(core.Config{}), Calibrate: calibrate})
	var err error
	if r.ga, err = r.sender.NewGateEndpoints(sEps[0], sEps[1]); err != nil {
		panic(err)
	}
	if r.gb, err = r.receiver.NewGateEndpoints(rEps[0], rEps[1]); err != nil {
		panic(err)
	}
	return r
}

// transfer moves msgs messages of size bytes, driving both engines.
func (r *rig) transfer(tagBase uint64, msgs, size int) {
	payload := make([]byte, size)
	for m := 0; m < msgs; m++ {
		tag := tagBase + uint64(m)
		rreq := r.gb.Irecv(tag)
		sreq := r.ga.Isend(tag, payload)
		for !(rreq.Test() && sreq.Test()) {
			r.sender.Tasks().Schedule(0)
			r.receiver.Tasks().Schedule(0)
		}
		if err := sreq.Err(); err != nil {
			panic(err)
		}
		if err := rreq.Err(); err != nil {
			panic(err)
		}
	}
}

func (r *rig) close() {
	r.sender.Close()
	r.receiver.Close()
}

// run executes the 8 MiB workload on a fresh rig and returns the
// modelled duration plus the gate for estimate inspection.
func run(calibrate, even bool) (simtime.Duration, *rig) {
	r := newRig(calibrate, even)
	r.transfer(100, 32, 256<<10)
	return simtime.Duration(r.f.Now()), r
}

func estRow(t *stats.Table, name string, rs nmad.RailStat, truth fabric.Capabilities) {
	t.AddRow(name,
		fmt.Sprintf("%.2f GB/s", rs.Caps.Bandwidth/1e9),
		fmt.Sprintf("%.2f GB/s", truth.Bandwidth/1e9),
		fmt.Sprintf("%.0f%%", 100*stats.RelError(rs.Caps.Bandwidth, truth.Bandwidth)),
		fmt.Sprintf("%v", rs.Caps.Latency),
		fmt.Sprintf("%v", truth.Latency),
		fmt.Sprintf("%d KiB", rs.PullBytes>>10),
	)
}

func main() {
	fmt.Println("Online rail calibration: 8 MiB over an 8 GB/s + 1 GB/s rail pair")
	fmt.Println("(32 × 256 KiB messages, deterministic virtual clock)")
	fmt.Println()

	evenTime, er := run(false, true)
	er.close()
	oracleTime, or := run(false, false)
	or.close()
	calTime, cr := run(true, false)

	cmp := stats.Table{
		Title:  "modelled completion time",
		Header: []string{"configuration", "time", "vs oracle"},
	}
	cmp.AddRow("even striping (seed)", evenTime.String(),
		fmt.Sprintf("%.2fx", float64(evenTime)/float64(oracleTime)))
	cmp.AddRow("oracle capability-aware", oracleTime.String(), "1.00x")
	cmp.AddRow("calibrated (zero prior)", calTime.String(),
		fmt.Sprintf("%.2fx", float64(calTime)/float64(oracleTime)))
	fmt.Println(cmp.String())

	est := stats.Table{
		Title:  "calibrated estimates after 32 messages",
		Header: []string{"rail", "est bw", "true bw", "err", "est lat", "true lat", "bytes read"},
	}
	rails := cr.gb.RailStats()
	estRow(&est, "fast", rails[0], fastCaps)
	estRow(&est, "slow", rails[1], slowCaps)
	fmt.Println(est.String())

	// Mid-stream shift: the rails swap effective bandwidths; the same
	// gate keeps running and must re-converge.
	degraded, upgraded := fastCaps, slowCaps
	degraded.Bandwidth, upgraded.Bandwidth = slowCaps.Bandwidth, fastCaps.Bandwidth
	for _, d := range cr.doms[0] {
		d.SetCapabilities(degraded)
	}
	for _, d := range cr.doms[1] {
		d.SetCapabilities(upgraded)
	}
	before := cr.gb.RailStats()
	shiftStart := cr.f.Now()
	cr.transfer(500, 64, 256<<10)
	shiftTime := simtime.Duration(cr.f.Now() - shiftStart)

	fmt.Println("rails swap bandwidths mid-stream (8↔1 GB/s); 64 more messages:")
	fmt.Println()
	re := stats.Table{
		Title:  "re-converged estimates",
		Header: []string{"rail", "est bw", "true bw", "err", "est lat", "true lat", "bytes read"},
	}
	after := cr.gb.RailStats()
	shifted := [2]nmad.RailStat{after[0], after[1]}
	for i := range shifted {
		shifted[i].PullBytes -= before[i].PullBytes
	}
	estRow(&re, "was-fast (now 1 GB/s)", shifted[0], degraded)
	estRow(&re, "was-slow (now 8 GB/s)", shifted[1], upgraded)
	fmt.Println(re.String())
	fmt.Printf("16 MiB after the shift in %v — the split followed the hardware, no reconfiguration.\n", shiftTime)
	cr.close()
}
