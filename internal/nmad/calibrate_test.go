package nmad

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/simtime"
)

// Online rail calibration: a gate over rails whose capabilities it was
// never told must converge to capability-aware striping from observed
// completions alone, deterministically on the virtual clock. The
// receiver stripes its reads, so the receiver's gate is the one that
// calibrates: bandwidth from its RMA-read completions (EventRMADone),
// latency from the small frames it sends.

// calRig is one sender/receiver pair over a fast+slow simulated rail
// pair, with progression driven manually from the test goroutine so
// every run replays the same virtual-time schedule.
type calRig struct {
	f                *fabric.SimFabric
	sender, receiver *Engine
	ga, gb           *Gate
	// doms[rail] holds the two domains of that rail (both directions),
	// for mid-stream capability shifts.
	doms [2][2]*fabric.SimDomain
}

// calFast and calSlow are the true envelopes of the two rails — an
// 8 GB/s rail against a 1 GB/s rail, the heterogeneous pair of the
// striping acceptance tests.
var (
	calFast = fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 8e9, MaxInject: 16 << 10, RMA: true}
	calSlow = fabric.Capabilities{Latency: 2 * simtime.Microsecond, Bandwidth: 1e9, MaxInject: 16 << 10, RMA: true}
)

// newCalRig builds the rig. calibrate makes the receiver's gate
// measure its rails from zero knowledge; even hides the true
// bandwidths from the receiver (evenRail), forcing the seed's even
// split.
func newCalRig(t testing.TB, calibrate, even bool) *calRig {
	t.Helper()
	r := &calRig{f: fabric.NewSimFabric(fabric.SimConfig{SendCompletions: true})}
	var sEps, rEps [2]fabric.Endpoint
	for i, caps := range []fabric.Capabilities{calFast, calSlow} {
		a := r.f.OpenDomain(caps)
		b := r.f.OpenDomain(caps)
		ea, eb := fabric.Connect(a, b)
		r.doms[i] = [2]*fabric.SimDomain{a, b}
		sEps[i], rEps[i] = ea, eb
	}
	r.sender = newManualEngine(Config{}, nil)
	r.receiver = newManualEngine(Config{Calibrate: calibrate}, nil)
	var err error
	if r.ga, err = r.sender.NewGateEndpoints(sEps[0], sEps[1]); err != nil {
		t.Fatal(err)
	}
	if r.gb, err = r.receiver.NewGateEndpoints(evenIf(even, rEps[0], rEps[1])...); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *calRig) close() {
	r.sender.Close()
	r.receiver.Close()
}

// transfer moves msgs messages of size bytes each, driving both
// engines' progression from this goroutine — single-threaded, so the
// schedule (and therefore the virtual-time result) is deterministic.
func (r *calRig) transfer(t testing.TB, tagBase uint64, msgs, size int) {
	t.Helper()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	for m := 0; m < msgs; m++ {
		tag := tagBase + uint64(m)
		rreq := r.gb.Irecv(tag)
		sreq := r.ga.Isend(tag, payload)
		for !(rreq.Test() && sreq.Test()) {
			r.sender.Tasks().Schedule(0)
			r.receiver.Tasks().Schedule(0)
		}
		if err := sreq.Err(); err != nil {
			t.Fatalf("send %d: %v", m, err)
		}
		if err := rreq.Err(); err != nil {
			t.Fatalf("recv %d: %v", m, err)
		}
		if m == 0 && !bytes.Equal(rreq.Data, payload) {
			t.Fatal("calibrated transfer corrupted the payload")
		}
	}
}

// calTransferTime runs the 8 MiB workload (32 × 256 KiB messages) on a
// fresh rig and returns the modelled duration.
func calTransferTime(t testing.TB, calibrate, even bool) simtime.Duration {
	r := newCalRig(t, calibrate, even)
	defer r.close()
	r.transfer(t, 100, 32, 256<<10)
	return simtime.Duration(r.f.Now())
}

func relOff(est, truth float64) float64 { return math.Abs(est-truth) / truth }

// TestCalibratedStripingConvergesOnUnknownRails is the acceptance test
// for online calibration: a gate over the 8 GB/s + 1 GB/s pair with
// zero assumed capabilities must complete the 8 MiB workload within
// 1.3× the oracle (capability-aware striping told the true envelopes)
// and within 0.6× of even striping, and its published estimates must
// land within 20% of the configured envelopes.
func TestCalibratedStripingConvergesOnUnknownRails(t *testing.T) {
	oracle := calTransferTime(t, false, false)
	even := calTransferTime(t, false, true)

	r := newCalRig(t, true, false)
	defer r.close()
	// Before traffic: the calibrated gate knows nothing.
	for i, rs := range r.gb.RailStats() {
		if rs.Caps.Bandwidth != 0 || rs.Caps.Latency != 0 {
			t.Fatalf("rail %d starts with assumed caps %v, want unknown", i, rs.Caps)
		}
	}
	r.transfer(t, 100, 32, 256<<10)
	cal := simtime.Duration(r.f.Now())

	t.Logf("8 MiB over unknown 8+1 GB/s rails: oracle %v, even %v, calibrated %v (%.2fx oracle, %.0f%% of even)",
		oracle, even, cal, float64(cal)/float64(oracle), 100*float64(cal)/float64(even))
	if float64(cal) > 1.3*float64(oracle) {
		t.Errorf("calibrated transfer took %v, want ≤ 1.3× the oracle %v", cal, oracle)
	}
	if float64(cal) > 0.6*float64(even) {
		t.Errorf("calibrated transfer took %v, want ≤ 0.6× even striping's %v", cal, even)
	}

	truths := []fabric.Capabilities{calFast, calSlow}
	for i, rs := range r.gb.RailStats() {
		if off := relOff(rs.Caps.Bandwidth, truths[i].Bandwidth); off > 0.2 {
			t.Errorf("rail %d bandwidth estimate %.3g vs true %.3g: %.0f%% off, want ≤ 20%%",
				i, rs.Caps.Bandwidth, truths[i].Bandwidth, 100*off)
		}
		if off := relOff(float64(rs.Caps.Latency), float64(truths[i].Latency)); off > 0.2 {
			t.Errorf("rail %d latency estimate %v vs true %v: %.0f%% off, want ≤ 20%%",
				i, rs.Caps.Latency, truths[i].Latency, 100*off)
		}
	}
	// The split actually went proportional: the fast rail carried the
	// bulk of the bytes.
	rails := r.gb.RailStats()
	if rails[0].PullBytes < 3*rails[1].PullBytes {
		t.Errorf("byte split %d/%d, want the fast rail carrying ≥ 3× the slow rail",
			rails[0].PullBytes, rails[1].PullBytes)
	}
}

// TestCalibratedTransferDeterministic: the driven-progression rig must
// replay to the identical virtual-time result — the determinism the
// convergence bars rely on.
func TestCalibratedTransferDeterministic(t *testing.T) {
	a := calTransferTime(t, true, false)
	b := calTransferTime(t, true, false)
	if a != b {
		t.Errorf("two identical calibrated runs took %v and %v; want identical virtual times", a, b)
	}
}

// TestCalibrationReconvergesAfterBandwidthShift: after the rig
// converges, the two rails swap effective bandwidths mid-stream; the
// estimates must track the swap and the split must flip.
func TestCalibrationReconvergesAfterBandwidthShift(t *testing.T) {
	r := newCalRig(t, true, false)
	defer r.close()
	r.transfer(t, 100, 32, 256<<10)

	before := r.gb.RailStats()
	if before[0].Caps.Bandwidth < before[1].Caps.Bandwidth {
		t.Fatalf("pre-shift estimates not converged: %v vs %v",
			before[0].Caps.Bandwidth, before[1].Caps.Bandwidth)
	}

	// Swap: the fast rail degrades to 1 GB/s, the slow one upgrades to
	// 8 GB/s (latencies unchanged).
	degraded, upgraded := calFast, calSlow
	degraded.Bandwidth, upgraded.Bandwidth = calSlow.Bandwidth, calFast.Bandwidth
	for _, d := range r.doms[0] {
		d.SetCapabilities(degraded)
	}
	for _, d := range r.doms[1] {
		d.SetCapabilities(upgraded)
	}

	base := r.gb.RailStats()
	r.transfer(t, 500, 64, 256<<10)
	after := r.gb.RailStats()

	if off := relOff(after[0].Caps.Bandwidth, 1e9); off > 0.25 {
		t.Errorf("degraded rail estimate %.3g vs true 1e9: %.0f%% off, want ≤ 25%%",
			after[0].Caps.Bandwidth, 100*off)
	}
	if off := relOff(after[1].Caps.Bandwidth, 8e9); off > 0.25 {
		t.Errorf("upgraded rail estimate %.3g vs true 8e9: %.0f%% off, want ≤ 25%%",
			after[1].Caps.Bandwidth, 100*off)
	}
	// The split followed the shift: post-shift traffic favours the
	// newly fast rail.
	d0 := after[0].PullBytes - base[0].PullBytes
	d1 := after[1].PullBytes - base[1].PullBytes
	if d1 < 2*d0 {
		t.Errorf("post-shift byte split %d/%d, want the upgraded rail carrying ≥ 2× the degraded one",
			d0, d1)
	}
}

// TestCalibratedGateUnderRace runs concurrent flows through a
// calibrated gate with background progression (run with -race): the
// calibrators sit on the shared read/send/poll paths, so this is the
// estimators-under-concurrent-completions guard at the protocol level.
func TestCalibratedGateUnderRace(t *testing.T) {
	f := fabric.NewSimFabric(fabric.SimConfig{SendCompletions: true})
	var sEps, rEps [2]fabric.Endpoint
	for i, caps := range []fabric.Capabilities{calFast, calSlow} {
		sEps[i], rEps[i] = fabric.Connect(f.OpenDomain(caps), f.OpenDomain(caps))
	}
	sender := NewEngine(Config{})
	receiver := NewEngine(Config{Calibrate: true})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(sEps[0], sEps[1])
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(rEps[0], rEps[1])
	if err != nil {
		t.Fatal(err)
	}

	const flows = 4
	var wg sync.WaitGroup
	for flow := 0; flow < flows; flow++ {
		payload := make([]byte, 96<<10)
		for i := range payload {
			payload[i] = byte(i*13 + flow)
		}
		wg.Add(2)
		go func(tag uint64, want []byte) {
			defer wg.Done()
			if err := ga.Send(tag, want); err != nil {
				t.Errorf("send %d: %v", tag, err)
			}
		}(uint64(flow), payload)
		go func(tag uint64, want []byte) {
			defer wg.Done()
			got, err := gb.Recv(tag)
			if err != nil {
				t.Errorf("recv %d: %v", tag, err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("flow %d payload corrupted", tag)
			}
		}(uint64(flow), payload)
	}
	wg.Wait()

	// The calibrators were live on both rails: every read completion
	// was polled before its Recv returned.
	deadline := time.Now().Add(10 * time.Second)
	for {
		missing := -1
		for i, rs := range gb.RailStats() {
			if rs.Caps.Bandwidth <= 0 {
				missing = i
			}
		}
		if missing < 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rail %d has no bandwidth estimate after traffic", missing)
		}
		runtime.Gosched()
	}
}

// benchCalibrated runs the unknown-rails workload in real time
// (TimeScale 1, wall-gated completions) with background progression —
// the wall-clock face of the convergence test.
func benchCalibrated(b *testing.B, msgs, size int) {
	f := fabric.NewSimFabric(fabric.SimConfig{TimeScale: 1, SendCompletions: true})
	var sEps, rEps [2]fabric.Endpoint
	for i, caps := range []fabric.Capabilities{calFast, calSlow} {
		sEps[i], rEps[i] = fabric.Connect(f.OpenDomain(caps), f.OpenDomain(caps))
	}
	sender := NewEngine(Config{})
	receiver := NewEngine(Config{Calibrate: true})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(sEps[0], sEps[1])
	if err != nil {
		b.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(rEps[0], rEps[1])
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	b.SetBytes(int64(msgs) * int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m := 0; m < msgs; m++ {
			tag := uint64(i*msgs + m)
			done := make(chan error, 1)
			go func() {
				_, err := gb.Recv(tag)
				done <- err
			}()
			if err := ga.Send(tag, payload); err != nil {
				b.Fatal(err)
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	rails := gb.RailStats()
	b.ReportMetric(rails[0].Caps.Bandwidth/1e9, "est-fast-GB/s")
	b.ReportMetric(rails[1].Caps.Bandwidth/1e9, "est-slow-GB/s")
}

// BenchmarkCalibratedStripeConvergence measures the 8 MiB workload
// (32 × 256 KiB) over the unknown 8+1 GB/s pair with online
// calibration, wall-gated. Compare the per-op wall time against
// BenchmarkStripeHeterogeneous (told the truth up front) and
// BenchmarkStripeHeterogeneousEven (the seed split); the reported
// est-*-GB/s metrics show where the estimates landed.
func BenchmarkCalibratedStripeConvergence(b *testing.B) {
	benchCalibrated(b, 32, 256<<10)
}

// BenchmarkCalibratedStripeLoopback runs a calibrated two-rail gate
// over fabric loopback RMA pairs — real elapsed time, no simulated
// clock at all: the calibrators measure whatever this host's memory
// system actually delivers and the split follows.
func BenchmarkCalibratedStripeLoopback(b *testing.B) {
	la0, lb0 := fabric.NewLoopbackRMA()
	la1, lb1 := fabric.NewLoopbackRMA()
	sender := NewEngine(Config{})
	receiver := NewEngine(Config{Calibrate: true})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(la0, la1)
	if err != nil {
		b.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(lb0, lb1)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := uint64(i)
		done := make(chan error, 1)
		go func() {
			_, err := gb.Recv(tag)
			done <- err
		}()
		if err := ga.Send(tag, payload); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rails := gb.RailStats()
	b.ReportMetric(rails[0].Caps.Bandwidth/1e9, "est-rail0-GB/s")
	b.ReportMetric(rails[1].Caps.Bandwidth/1e9, "est-rail1-GB/s")
}

// TestCalibratedPullConverges: a calibrated RECEIVER over unknown
// rails learns bandwidth from its own RMA-read completions — pull mode
// has no bulk sends to sample, so the read attribution path is the
// only way a receiver-driven gate can converge — and its pull striping
// goes proportional.
func TestCalibratedPullConverges(t *testing.T) {
	f := fabric.NewSimFabric(fabric.SimConfig{})
	var sEps, rEps [2]fabric.Endpoint
	for i, caps := range []fabric.Capabilities{calFast, calSlow} {
		a := f.OpenDomain(caps)
		b := f.OpenDomain(caps)
		sEps[i], rEps[i] = fabric.Connect(a, b)
	}

	sender := newManualEngine(Config{}, nil)
	receiver := newManualEngine(Config{Calibrate: true}, nil)
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(sEps[0], sEps[1])
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(rEps[0], rEps[1])
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range gb.RailStats() {
		if rs.Caps.Bandwidth != 0 {
			t.Fatalf("receiver rail %d starts with assumed bandwidth %v, want unknown", i, rs.Caps.Bandwidth)
		}
	}

	payload := make([]byte, 256<<10)
	for m := 0; m < 32; m++ {
		tag := uint64(m)
		rreq := gb.Irecv(tag)
		sreq := ga.Isend(tag, payload)
		for !(rreq.Test() && sreq.Test()) {
			sender.Tasks().Schedule(0)
			receiver.Tasks().Schedule(0)
		}
		if rreq.Err() != nil || sreq.Err() != nil {
			t.Fatalf("transfer %d: recv %v / send %v", m, rreq.Err(), sreq.Err())
		}
	}

	if st := receiver.Stats(); st.RdvPulls == 0 {
		t.Fatalf("no pulls recorded; the calibrated path was not exercised: %+v", st)
	}
	truths := []fabric.Capabilities{calFast, calSlow}
	rails := gb.RailStats()
	for i, rs := range rails {
		if off := relOff(rs.Caps.Bandwidth, truths[i].Bandwidth); off > 0.25 {
			t.Errorf("receiver rail %d bandwidth estimate %.3g vs true %.3g: %.0f%% off, want ≤ 25%%",
				i, rs.Caps.Bandwidth, truths[i].Bandwidth, 100*off)
		}
	}
	// The pull split followed the estimates: the fast rail pulled the
	// bulk of the bytes.
	if rails[0].PullBytes < 3*rails[1].PullBytes {
		t.Errorf("pull byte split %d/%d, want the fast rail pulling ≥ 3× the slow rail",
			rails[0].PullBytes, rails[1].PullBytes)
	}
}

// TestCalibrateDoesNotMutateCallerSlice: NewGateEndpoints must not
// replace the caller's endpoints with calibrator wrappers through the
// variadic parameter's backing array.
func TestCalibrateDoesNotMutateCallerSlice(t *testing.T) {
	f := fabric.NewSimFabric(fabric.SimConfig{SendCompletions: true})
	a := f.OpenDomain(calFast)
	b := f.OpenDomain(calFast)
	ea, eb := fabric.Connect(a, b)
	_ = eb
	e := newManualEngine(Config{Calibrate: true}, nil)
	defer e.Close()
	eps := []fabric.Endpoint{ea}
	if _, err := e.NewGateEndpoints(eps...); err != nil {
		t.Fatal(err)
	}
	if _, ok := eps[0].(*fabric.SimEndpoint); !ok {
		t.Errorf("caller's slice element replaced by %T", eps[0])
	}
}
