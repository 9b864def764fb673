package nmad

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/simtime"
)

// Receiver-driven pull rendezvous: acceptance tests. The headline
// claims are proven by counters, not vibes — the simulated fabric
// counts host copies (inject buffering, rendezvous staging) separately
// from RMA-read DMA, and the engines count receive-path memcpys — and
// by the deterministic virtual clock.

// pullRig is a two-engine pair over two simulated RMA rails with
// manually driven progression, so runs replay deterministically.
type pullRig struct {
	f                *fabric.SimFabric
	sender, receiver *Engine
	ga, gb           *Gate
	sEps, rEps       [2]*fabric.SimEndpoint
}

func newPullRig(t testing.TB) *pullRig {
	t.Helper()
	r := &pullRig{f: fabric.NewSimFabric(fabric.SimConfig{})}
	fast := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 8e9, MaxInject: 16 << 10, RMA: true}
	slow := fabric.Capabilities{Latency: 5 * simtime.Microsecond, Bandwidth: 1e9, MaxInject: 16 << 10, RMA: true}
	for i, caps := range []fabric.Capabilities{fast, slow} {
		r.sEps[i], r.rEps[i] = fabric.Connect(r.f.OpenDomain(caps), r.f.OpenDomain(caps))
	}
	r.sender = NewEngine(Config{NoAutoProgress: true})
	r.receiver = NewEngine(Config{NoAutoProgress: true})
	var err error
	if r.ga, err = r.sender.NewGateEndpoints(r.sEps[0], r.sEps[1]); err != nil {
		t.Fatal(err)
	}
	if r.gb, err = r.receiver.NewGateEndpoints(r.rEps[0], r.rEps[1]); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *pullRig) close() {
	r.sender.Close()
	r.receiver.Close()
}

// transfer moves one tagged message, driving both engines from this
// goroutine.
func (r *pullRig) transfer(t testing.TB, tag uint64, payload, recvBuf []byte) *Request {
	t.Helper()
	var rreq *Request
	if recvBuf != nil {
		rreq = r.gb.IrecvInto(tag, recvBuf)
	} else {
		rreq = r.gb.Irecv(tag)
	}
	sreq := r.ga.Isend(tag, payload)
	for !(rreq.Test() && sreq.Test()) {
		r.sender.Tasks().Schedule(0)
		r.receiver.Tasks().Schedule(0)
	}
	if err := sreq.Err(); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := rreq.Err(); err != nil {
		t.Fatalf("recv: %v", err)
	}
	return rreq
}

// TestPullZeroCopyBeatsPush is the zero-copy acceptance test: an
// 8 MiB rendezvous over two RMA-capable rails moves the payload with
// zero receive-path host copies and no sender staging copy — every byte
// by RMA read — with a handshake of a few control frames. (The push
// path it was once measured against is gone: every rail reads.)
func TestPullZeroCopyBeatsPush(t *testing.T) {
	const size = 8 << 20
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*31 + i>>9)
	}
	pull := newPullRig(t)
	defer pull.close()
	rreq := pull.transfer(t, 1, payload, nil)
	if !bytes.Equal(rreq.Data, payload) {
		t.Fatal("pull payload corrupted")
	}
	pullSim := pull.f.Stats()
	pullRecv := pull.receiver.Stats()
	t.Logf("8 MiB rendezvous: pull %v (staged %d B, recv-copied %d B, RMA-read %d B)",
		simtime.Duration(pull.f.Now()), pullSim.StagedCopiedBytes, pullRecv.RecvCopiedBytes, pullSim.RMAReadBytes)

	if pullSim.StagedCopiedBytes != 0 {
		t.Errorf("pull staged %d bytes; the sender must not stage", pullSim.StagedCopiedBytes)
	}
	if pullRecv.RecvCopiedBytes != 0 {
		t.Errorf("pull copied %d bytes on the receive path; want zero", pullRecv.RecvCopiedBytes)
	}
	if pullSim.RMAReadBytes != size {
		t.Errorf("RMA reads moved %d bytes, want the whole payload (%d)", pullSim.RMAReadBytes, size)
	}
	if pullSim.InjectCopiedBytes >= 1024 {
		t.Errorf("pull buffered %d control bytes; the handshake should be a few frames", pullSim.InjectCopiedBytes)
	}
	if pullRecv.RdvPulls == 0 || pullRecv.RdvFins != 1 {
		t.Errorf("pull protocol counters off: %+v", pullRecv)
	}
}

// TestPullRegistrationCacheReuse: repeated sends of one buffer
// register once per rail domain and never again — the rcache hit path
// — and closing the engines releases every region (no MemoryRegion
// leaks after N pull-mode rendezvous).
func TestPullRegistrationCacheReuse(t *testing.T) {
	r := newPullRig(t)
	payload := make([]byte, 1<<20)
	recvBuf := make([]byte, 1<<20)
	const msgs = 16
	for m := 0; m < msgs; m++ {
		rreq := r.transfer(t, uint64(m), payload, recvBuf)
		rreq.Free()
	}
	st := r.f.Stats()
	if st.Registrations != 2 {
		t.Errorf("registrations = %d after %d sends of one buffer, want 2 (one per rail domain)", st.Registrations, msgs)
	}
	if st.LiveRegions != 2 {
		t.Errorf("live regions = %d, want the 2 cached registrations", st.LiveRegions)
	}
	for _, c := range r.ga.regCaches {
		cs := c.Stats()
		if cs.LiveRefs != 0 {
			t.Errorf("cache holds %d refs after all FINs; regions not released", cs.LiveRefs)
		}
		if cs.Hits == 0 {
			t.Error("no cache hits recorded across repeated sends")
		}
	}
	// Re-registering the same base at a different length invalidates.
	rreq := r.transfer(t, 100, payload[:512<<10], recvBuf)
	rreq.Free()
	for _, c := range r.ga.regCaches {
		if cs := c.Stats(); cs.Invalidations != 1 {
			t.Errorf("invalidations = %d after length change, want 1", cs.Invalidations)
		}
	}
	r.close()
	if st := r.f.Stats(); st.LiveRegions != 0 {
		t.Errorf("%d regions leaked past engine Close", st.LiveRegions)
	}
}

// TestMemRailPullReusesBuffers: MemPair rails read. 64 rendezvous of
// growing size over a two-rail mem gate are pulled straight out of one
// reused send buffer, which the sender rewrites as soon as each Send
// returns — every receive must still be byte-exact, so nothing reads
// the region after the FIN. Closing the engines leaves no region
// registered on either loopback pair and both gates idle.
func TestMemRailPullReusesBuffers(t *testing.T) {
	ea, ga, eb, gb := enginePair(t, 2, StrategyDefault)
	const msgs, lo, hi = 64, 8<<10 + 1, 1 << 20
	sendBuf, recvBuf := make([]byte, hi), make([]byte, hi)
	fill := func(b []byte, seed int) {
		for i := range b {
			b[i] = byte(i*7 + i>>9 + seed*31)
		}
	}
	want := make([]byte, hi)
	for m := 0; m < msgs; m++ {
		n := lo + m*(hi-lo)/(msgs-1)
		fill(sendBuf[:n], m)
		copy(want, sendBuf[:n])
		rreq := gb.IrecvInto(uint64(m), recvBuf)
		if err := ga.Send(uint64(m), sendBuf[:n]); err != nil {
			t.Fatalf("send %d: %v", m, err)
		}
		fill(sendBuf, ^m) // the buffer is the caller's again
		if err := rreq.Wait(); err != nil {
			t.Fatalf("recv %d: %v", m, err)
		}
		if !bytes.Equal(rreq.Data, want[:n]) {
			t.Fatalf("message %d (%d B) corrupted", m, n)
		}
	}
	st := eb.Stats()
	if st.RdvPulls < msgs || st.RecvCopiedBytes != 0 {
		t.Errorf("receiver: %d pulls, %d bytes copied; want >= %d, 0",
			st.RdvPulls, st.RecvCopiedBytes, msgs)
	}
	ea.Close()
	eb.Close()
	for i, r := range ga.rails {
		if n := r.ep.(*memEndpoint).rma.Regions(); n != 0 {
			t.Errorf("rail %d: %d regions registered after Close", i, n)
		}
	}
	requireClean(t, "sender", ga)
	requireClean(t, "receiver", gb)
}

// TestPullSenderRegionsReleasedOnFinLoss: when the gate fails mid-pull
// (every rail dies before the FIN can arrive), the failure sweep
// releases the sender's region references — nothing stays pinned by a
// handshake that will never finish.
func TestPullSenderRegionsReleasedOnFinLoss(t *testing.T) {
	r := newPullRig(t)
	defer r.close()
	payload := make([]byte, 1<<20)

	sreq := r.ga.Isend(5, payload)
	// Drive only the sender: the RTS goes out, the receiver never runs,
	// no FIN will ever come.
	for i := 0; i < 50; i++ {
		r.sender.Tasks().Schedule(0)
	}
	refs := 0
	for _, c := range r.ga.regCaches {
		refs += c.Stats().LiveRefs
	}
	if refs == 0 {
		t.Fatal("pull offer registered nothing; test setup is wrong")
	}

	// A rail dies under the sender (its poll errors out). The sweep
	// kills the FIN-waiting rendezvous conservatively — the FIN
	// may have been in flight on the dead rail — and must drop the
	// region references with it.
	r.sEps[0].Close()
	for i := 0; i < 200 && !sreq.Test(); i++ {
		r.sender.Tasks().Schedule(0)
	}
	if sreq.Err() == nil {
		t.Fatal("send should fail when the gate dies mid-pull")
	}
	for _, c := range r.ga.regCaches {
		if cs := c.Stats(); cs.LiveRefs != 0 {
			t.Errorf("cache still holds %d refs after gate failure; FIN-loss leak", cs.LiveRefs)
		}
	}
}

// failingPullEndpoint wraps a SimEndpoint (keeping its RMA and Domain
// faces) and injects a poll error on demand — the receiver-side rail
// death switch. With failOnRead armed, posting an RMARead arms the
// poll error synchronously, so the read is guaranteed to still be in
// flight (wall-gated wire time) when the rail reports dead — no
// watcher-goroutine race against the transfer.
type failingPullEndpoint struct {
	*fabric.SimEndpoint
	pollErr    atomic.Pointer[error]
	failOnRead atomic.Bool
}

func (f *failingPullEndpoint) Poll() (fabric.Event, bool, error) {
	if ep := f.pollErr.Load(); ep != nil {
		return fabric.Event{}, false, *ep
	}
	return f.SimEndpoint.Poll()
}

func (f *failingPullEndpoint) RMARead(key fabric.RKey, offset int, local []byte, ctx any) error {
	err := f.SimEndpoint.RMARead(key, offset, local, ctx)
	if err == nil && f.failOnRead.Load() {
		boom := errors.New("receiver rail down mid-pull")
		f.pollErr.Store(&boom)
	}
	return err
}

// TestPullRailDeathReissuesOnSurvivor: a rail dying mid-pull re-issues
// its outstanding chunks on the survivors without corrupting req.Data.
// The fabric runs wall-gated (TimeScale 1) so the reads are genuinely
// in flight when the rail dies.
func TestPullRailDeathReissuesOnSurvivor(t *testing.T) {
	f := fabric.NewSimFabric(fabric.SimConfig{TimeScale: 1})
	caps := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 1e9, MaxInject: 16 << 10, RMA: true}
	var sEps [2]fabric.Endpoint
	var rEps [2]*fabric.SimEndpoint
	for i := 0; i < 2; i++ {
		a := f.OpenDomain(caps)
		b := f.OpenDomain(caps)
		sEps[i], rEps[i] = fabric.Connect(a, b)
	}
	flaky := &failingPullEndpoint{SimEndpoint: rEps[0]}
	flaky.failOnRead.Store(true)

	sender := NewEngine(Config{})
	receiver := NewEngine(Config{})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(sEps[0], sEps[1])
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(flaky, rEps[1])
	if err != nil {
		t.Fatal(err)
	}

	// 8 MiB at 2 × 1 GB/s is ~4 ms of wire time per rail. Rail 0 arms
	// its own poll error the moment its pull is posted (failOnRead), so
	// the read is in flight when the rail dies — deterministically,
	// however the test goroutines are scheduled.
	payload := make([]byte, 8<<20)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	done := make(chan struct{})
	var got []byte
	var recvErr error
	go func() {
		defer close(done)
		got, recvErr = gb.Recv(9)
	}()
	sreq := ga.Isend(9, payload)

	<-done
	if recvErr != nil {
		t.Fatalf("pull transfer should survive a rail death: %v", recvErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("re-pulled payload corrupted")
	}
	if err := sreq.Wait(); err != nil {
		t.Fatalf("sender should complete via FIN: %v", err)
	}
	st := receiver.Stats()
	if st.RdvPulls < 3 {
		t.Errorf("no re-issued chunk recorded after rail death: %+v", st)
	}
	if !gb.RailStats()[0].Dead {
		t.Error("failed rail not marked dead")
	}
	if gb.RailStats()[1].Dead {
		t.Error("surviving rail marked dead")
	}
}

// TestConcurrentPullsWithCapabilitySwapUnderRace stripes concurrent
// pulls over two rails while SetCapabilities swaps their bandwidths
// mid-stream — the -race guard over the pull state machine, the
// registration cache and the receiver-side striping.
func TestConcurrentPullsWithCapabilitySwapUnderRace(t *testing.T) {
	f := fabric.NewSimFabric(fabric.SimConfig{})
	fast := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 8e9, MaxInject: 16 << 10, RMA: true}
	slow := fabric.Capabilities{Latency: 2 * simtime.Microsecond, Bandwidth: 1e9, MaxInject: 16 << 10, RMA: true}
	var sEps, rEps [2]fabric.Endpoint
	var doms [2][2]*fabric.SimDomain
	for i, caps := range []fabric.Capabilities{fast, slow} {
		a := f.OpenDomain(caps)
		b := f.OpenDomain(caps)
		sEps[i], rEps[i] = fabric.Connect(a, b)
		doms[i] = [2]*fabric.SimDomain{a, b}
	}
	sender := NewEngine(Config{})
	receiver := NewEngine(Config{})
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

	const flows = 6
	var wg sync.WaitGroup
	for flow := 0; flow < flows; flow++ {
		payload := make([]byte, 1<<20)
		for i := range payload {
			payload[i] = byte(i*7 + flow)
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
		if flow == flows/2 {
			// Swap the rails' bandwidths mid-stream, concurrently with
			// in-flight pulls.
			degraded, upgraded := fast, slow
			degraded.Bandwidth, upgraded.Bandwidth = slow.Bandwidth, fast.Bandwidth
			for _, d := range doms[0] {
				d.SetCapabilities(degraded)
			}
			for _, d := range doms[1] {
				d.SetCapabilities(upgraded)
			}
		}
	}
	wg.Wait()
	if st := receiver.Stats(); st.RdvPulls == 0 {
		t.Errorf("no pulls recorded: %+v", st)
	}
}

// TestPullMixedRailsFallsBackPerRail: a gate mixing one RMA rail with
// one rail that cannot read pulls over the RMA rail only — the offer
// names just the readable rail, and the whole payload arrives through
// it.
func TestPullMixedRailsFallsBackPerRail(t *testing.T) {
	f := fabric.NewSimFabric(fabric.SimConfig{})
	caps := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 8e9, MaxInject: 16 << 10, RMA: true}
	ea, eb := fabric.Connect(f.OpenDomain(caps), f.OpenDomain(caps))
	la, lb := fabric.NewLoopback()

	sender := NewEngine(Config{})
	receiver := NewEngine(Config{})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(ea, la)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(eb, lb)
	if err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	done := make(chan error, 1)
	var got []byte
	go func() {
		var err error
		got, err = gb.Recv(4)
		done <- err
	}()
	if err := ga.Send(4, payload); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("mixed-rail pull corrupted the payload")
	}
	st := receiver.Stats()
	if st.RdvPulls == 0 || st.RdvPullBytes != uint64(len(payload)) {
		t.Errorf("expected the whole payload pulled over the RMA rail: %+v", st)
	}
	if rs := gb.RailStats(); rs[0].PullBytes != uint64(len(payload)) || rs[1].PullBytes != 0 {
		t.Errorf("pull bytes per rail %d/%d, want everything on the RMA rail", rs[0].PullBytes, rs[1].PullBytes)
	}
}

// TestIrecvIntoShortBufferFailsBothSides: a posted buffer too small
// for the matched rendezvous fails the receive locally and NACKs the
// sender, which fails too instead of waiting for a FIN forever.
func TestIrecvIntoShortBufferFailsBothSides(t *testing.T) {
	r := newPullRig(t)
	defer r.close()
	payload := make([]byte, 256<<10)
	rreq := r.gb.IrecvInto(7, make([]byte, 1024))
	sreq := r.ga.Isend(7, payload)
	for !(rreq.Test() && sreq.Test()) {
		r.sender.Tasks().Schedule(0)
		r.receiver.Tasks().Schedule(0)
	}
	if !errors.Is(rreq.Err(), errShortRecvBuffer) {
		t.Errorf("recv error = %v, want short-buffer", rreq.Err())
	}
	if sreq.Err() == nil {
		t.Error("sender should fail on the NACK instead of hanging")
	}
	for _, c := range r.ga.regCaches {
		if cs := c.Stats(); cs.LiveRefs != 0 {
			t.Errorf("cache still holds %d refs after NACK", cs.LiveRefs)
		}
	}
}

// TestIrecvIntoEagerCopies: eager messages land in the caller's buffer
// by one counted copy.
func TestIrecvIntoEagerCopies(t *testing.T) {
	r := newPullRig(t)
	defer r.close()
	buf := make([]byte, 64)
	rreq := r.transfer(t, 3, []byte("into the user buffer"), buf)
	if string(rreq.Data) != "into the user buffer" {
		t.Errorf("Data = %q", rreq.Data)
	}
	if &buf[0] != &rreq.Data[0] {
		t.Error("Data does not alias the caller's buffer")
	}
	if st := r.receiver.Stats(); st.RecvCopiedBytes != uint64(len(rreq.Data)) {
		t.Errorf("RecvCopiedBytes = %d, want %d", st.RecvCopiedBytes, len(rreq.Data))
	}
}

// ---- Benchmarks: the steady-state allocation bar ----

// BenchmarkRdvPull measures the steady-state pull-mode rendezvous on
// two loopback-RMA rails (wall clock, no simulation): repeated sends of
// one buffer ride the registration cache and the pooled
// requests/states/packets, so the bar is 0 allocs/op after warm-up.
func BenchmarkRdvPull(b *testing.B) {
	la0, lb0 := fabric.NewLoopbackRMA()
	la1, lb1 := fabric.NewLoopbackRMA()
	sender := NewEngine(Config{})
	receiver := NewEngine(Config{})
	ga, err := sender.NewGateEndpoints(la0, la1)
	if err != nil {
		b.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(lb0, lb1)
	if err != nil {
		b.Fatal(err)
	}
	defer sender.Close()
	defer receiver.Close()
	payload := make([]byte, 256<<10)
	recvBuf := make([]byte, len(payload))
	// Warm up the pools and the registration cache.
	for i := 0; i < 8; i++ {
		rreq := gb.IrecvInto(uint64(i), recvBuf)
		sreq := ga.Isend(uint64(i), payload)
		if err := sreq.Wait(); err != nil {
			b.Fatal(err)
		}
		if err := rreq.Wait(); err != nil {
			b.Fatal(err)
		}
		sreq.Free()
		rreq.Free()
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := uint64(100 + i)
		rreq := gb.IrecvInto(tag, recvBuf)
		sreq := ga.Isend(tag, payload)
		if err := sreq.Wait(); err != nil {
			b.Fatal(err)
		}
		if err := rreq.Wait(); err != nil {
			b.Fatal(err)
		}
		sreq.Free()
		rreq.Free()
	}
}

// BenchmarkAggr measures the aggregation strategy's steady state: a
// burst of small messages packed into aggregate frames, with the
// frame payloads drawn from the gate's pooled buffers.
func BenchmarkAggr(b *testing.B) {
	da, db := MemPair()
	sender := NewEngine(Config{Strategy: StrategyAggreg})
	receiver := NewEngine(Config{})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGate(da)
	if err != nil {
		b.Fatal(err)
	}
	gb, err := receiver.NewGate(db)
	if err != nil {
		b.Fatal(err)
	}
	const burst = 16
	msg := make([]byte, 256)
	reqs := make([]*Request, burst)
	b.SetBytes(int64(burst * len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			reqs[j] = ga.Isend(uint64(j), msg)
		}
		for _, r := range reqs {
			if err := r.Wait(); err != nil {
				b.Fatal(err)
			}
			r.Free()
		}
		for j := 0; j < burst; j++ {
			r := gb.Irecv(uint64(j))
			if err := r.Wait(); err != nil {
				b.Fatal(err)
			}
			r.Free()
		}
	}
}

// erroringReadEndpoint wraps a SimEndpoint whose RMARead always fails
// with a transport error (not ErrNoRegion), modelling a rail whose
// read engine broke while its poll side still looks healthy.
type erroringReadEndpoint struct {
	*fabric.SimEndpoint
}

var errReadEngineBroken = errors.New("rail read engine broken")

func (f *erroringReadEndpoint) RMARead(key fabric.RKey, offset int, local []byte, ctx any) error {
	return errReadEngineBroken
}

// TestPullLastRailDeathFailsGate: when the gate's only rail dies
// through the RMARead post path, the receive must fail promptly via
// failGate — not NACK into a dead gate and hang forever.
func TestPullLastRailDeathFailsGate(t *testing.T) {
	f := fabric.NewSimFabric(fabric.SimConfig{})
	caps := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 8e9, MaxInject: 16 << 10, RMA: true}
	a := f.OpenDomain(caps)
	b := f.OpenDomain(caps)
	sEp, rEp := fabric.Connect(a, b)

	sender := NewEngine(Config{})
	receiver := NewEngine(Config{})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(sEp)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(&erroringReadEndpoint{SimEndpoint: rEp})
	if err != nil {
		t.Fatal(err)
	}

	rreq := gb.Irecv(11)
	ga.Isend(11, make([]byte, 256<<10))
	select {
	case <-rreq.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("receive hung after the last rail died mid-pull")
	}
	if rreq.Err() == nil {
		t.Fatal("receive should fail when the gate's only rail cannot serve reads")
	}
	if !gb.RailStats()[0].Dead {
		t.Error("failed rail not marked dead")
	}
}

// TestCalibratedDriverRailKeepsPullAlive: wrapping the package's own
// rails in a calibrator moves them onto the generic Send/Poll face,
// which must keep the RTS pull offer (the imm extension) and the RMA
// face intact — so a calibrated gate mixing a simulated rail with a
// MemPair rail still pulls over both.
func TestCalibratedDriverRailKeepsPullAlive(t *testing.T) {
	f := fabric.NewSimFabric(fabric.SimConfig{})
	caps := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 8e9, MaxInject: 16 << 10, RMA: true}
	ea, eb := fabric.Connect(f.OpenDomain(caps), f.OpenDomain(caps))
	da, db := MemPair()

	sender := NewEngine(Config{Calibrate: true})
	receiver := NewEngine(Config{Calibrate: true})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(ea, endpointOf(da))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(eb, endpointOf(db))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range gb.rails {
		if _, ok := r.ep.(*fabric.CalibratedEndpoint); !ok || r.rma == nil {
			t.Fatalf("rail %d: %T, reads %v; want a calibrated reading rail", i, r.ep, r.rma != nil)
		}
	}

	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	done := make(chan error, 1)
	var got []byte
	go func() {
		var err error
		got, err = gb.Recv(5)
		done <- err
	}()
	if err := ga.Send(5, payload); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("calibrated mixed-rail transfer corrupted the payload")
	}
	if st := receiver.Stats(); st.RdvPulls != 2 || st.RecvCopiedBytes != 0 {
		t.Errorf("calibrated gate should pull over both rails: %+v", st)
	}
	if rs := gb.RailStats(); rs[1].PullBytes == 0 {
		t.Error("the calibrated mem rail read nothing: its offer or RMA face was lost")
	}
}
