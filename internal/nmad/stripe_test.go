package nmad

import (
	"bytes"
	"sync"
	"testing"

	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/simtime"
)

// fakeEndpoint is an inert fabric endpoint with a settable envelope
// and backlog, for unit-testing the striping policy without traffic.
type fakeEndpoint struct {
	caps    fabric.Capabilities
	backlog int
}

func (f *fakeEndpoint) Provider() string                  { return "fake" }
func (f *fakeEndpoint) Capabilities() fabric.Capabilities { return f.caps }
func (f *fakeEndpoint) Send(imm, payload []byte) error    { return nil }
func (f *fakeEndpoint) Poll() (fabric.Event, bool, error) { return fabric.Event{}, false, nil }
func (f *fakeEndpoint) Backlog() int                      { return f.backlog }
func (f *fakeEndpoint) Close() error                      { return nil }

// evenRail hides a simulated rail's bandwidth: Capabilities reports 0,
// so striping over it splits equally (the fabric.Capabilities
// contract) — the seed's even split for the ablation rigs. The modelled
// timing still comes from the domain, and the RMA and Domain faces are
// promoted, so a wrapped rail still pulls.
type evenRail struct{ *fabric.SimEndpoint }

func (r evenRail) Capabilities() fabric.Capabilities {
	caps := r.SimEndpoint.Capabilities()
	caps.Bandwidth = 0
	return caps
}

// evenIf wraps simulated rails in evenRail when on is set.
func evenIf(on bool, eps ...fabric.Endpoint) []fabric.Endpoint {
	if on {
		for i, ep := range eps {
			eps[i] = evenRail{ep.(*fabric.SimEndpoint)}
		}
	}
	return eps
}

// stripeGate builds a bare gate (no engine goroutines) over fake rails.
func stripeGate(eps ...*fakeEndpoint) *Gate {
	g := &Gate{eng: &Engine{}}
	for _, ep := range eps {
		g.rails = append(g.rails, &rail{ep: ep})
	}
	g.alive.Store(int32(len(eps)))
	return g
}

// stripe splits a payload of the given size across every alive rail,
// as for a receive whose offer covers them all.
func (g *Gate) stripe(total int) []rdvChunk {
	st := &recvRdvState{keys: make([]fabric.RKey, len(g.rails))}
	for i := range st.keys {
		st.keys[i] = 1
	}
	g.stripeRecvChunks(st, total)
	return st.chunks
}

func chunkSizes(chunks []rdvChunk) map[int]int {
	out := map[int]int{}
	for _, c := range chunks {
		out[c.rail] += c.hi - c.lo
	}
	return out
}

func TestStripeProportionalToBandwidth(t *testing.T) {
	g := stripeGate(
		&fakeEndpoint{caps: fabric.Capabilities{Bandwidth: 8e9}},
		&fakeEndpoint{caps: fabric.Capabilities{Bandwidth: 2e9}},
	)
	const total = 1 << 20
	chunks := g.stripe(total)
	if len(chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(chunks))
	}
	sizes := chunkSizes(chunks)
	if sizes[0]+sizes[1] != total {
		t.Fatalf("Σ chunk sizes = %d, want %d", sizes[0]+sizes[1], total)
	}
	// 8:2 split — the fast rail carries 4x the slow rail's share.
	ratio := float64(sizes[0]) / float64(sizes[1])
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("fast/slow share ratio = %.2f, want ≈4", ratio)
	}
}

// TestStripeEvenAblation: one rail hiding its bandwidth makes the whole
// split equal — how the ablation rigs (evenRail) get the seed's even
// split.
func TestStripeEvenAblation(t *testing.T) {
	g := stripeGate(
		&fakeEndpoint{caps: fabric.Capabilities{}},
		&fakeEndpoint{caps: fabric.Capabilities{Bandwidth: 2e9}},
	)
	sizes := chunkSizes(g.stripe(1 << 20))
	if sizes[0] != sizes[1] {
		t.Errorf("even stripe split %d/%d, want equal shares", sizes[0], sizes[1])
	}
}

func TestStripeSkipsBackpressuredRail(t *testing.T) {
	// The fakes report no latency, so their backpressure threshold is
	// the unknown-rail default.
	g := stripeGate(
		&fakeEndpoint{caps: fabric.Capabilities{Bandwidth: 8e9}, backlog: defaultBackpressureLimit + 1},
		&fakeEndpoint{caps: fabric.Capabilities{Bandwidth: 2e9}},
	)
	chunks := g.stripe(1 << 20)
	if len(chunks) != 1 || chunks[0].rail != 1 {
		t.Fatalf("chunks = %+v, want everything on the uncongested rail 1", chunks)
	}
	// When every rail is backpressured, congestion stops mattering.
	g.rails[1].ep.(*fakeEndpoint).backlog = defaultBackpressureLimit + 5
	if chunks := g.stripe(1 << 20); len(chunks) != 2 {
		t.Fatalf("all-congested stripe = %+v, want both rails used", chunks)
	}
}

func TestBackpressureLimitTracksBDP(t *testing.T) {
	// 8 GB/s × 50 µs = 400 KB in flight; at the measured 4 KiB average
	// frame size that is ~97 frames of headroom.
	fast := &fakeEndpoint{caps: fabric.Capabilities{Bandwidth: 8e9, Latency: 50 * simtime.Microsecond}}
	g := stripeGate(fast)
	r := g.rails[0]
	r.frames.Store(10)
	r.bytes.Store(10 * 4096)
	if got, want := r.bpLimit(fast.caps), 97; got != want {
		t.Errorf("bpLimit = %d, want %d (BDP / avg frame)", got, want)
	}
	// A deep-BDP rail clamps at the ceiling...
	fast.caps.Latency = 10 * simtime.Millisecond
	if got := r.bpLimit(fast.caps); got != maxBackpressureLimit {
		t.Errorf("deep-BDP limit = %d, want clamp at %d", got, maxBackpressureLimit)
	}
	// ...a shallow one at the floor...
	fast.caps.Latency = simtime.Microsecond
	fast.caps.Bandwidth = 1e9
	if got := r.bpLimit(fast.caps); got != minBackpressureLimit {
		t.Errorf("shallow-BDP limit = %d, want clamp at %d", got, minBackpressureLimit)
	}
	// ...and an unknown envelope falls back to the fixed default.
	fast.caps = fabric.Capabilities{Bandwidth: 8e9}
	if got := r.bpLimit(fast.caps); got != defaultBackpressureLimit {
		t.Errorf("unknown-rail limit = %d, want default %d", got, defaultBackpressureLimit)
	}
}

func TestStripeFoldsTinyShares(t *testing.T) {
	g := stripeGate(
		&fakeEndpoint{caps: fabric.Capabilities{Bandwidth: 100e9}},
		&fakeEndpoint{caps: fabric.Capabilities{Bandwidth: 1e9}},
	)
	// 16 KiB at 100:1 gives the slow rail ~162 bytes — below the
	// minimum chunk, folded into the fast rail.
	chunks := g.stripe(16 << 10)
	if len(chunks) != 1 || chunks[0].rail != 0 || chunks[0].hi != 16<<10 {
		t.Fatalf("chunks = %+v, want one whole-payload chunk on rail 0", chunks)
	}
}

func TestStripeExcludesDeadRails(t *testing.T) {
	g := stripeGate(
		&fakeEndpoint{caps: fabric.Capabilities{Bandwidth: 8e9}},
		&fakeEndpoint{caps: fabric.Capabilities{Bandwidth: 8e9}},
	)
	g.rails[0].dead.Store(true)
	chunks := g.stripe(1 << 20)
	if len(chunks) != 1 || chunks[0].rail != 1 {
		t.Fatalf("chunks = %+v, want everything on the surviving rail", chunks)
	}
	// No rail left: the one fallback chunk covers the payload, and
	// issueChunk fails it for want of a rail to read through.
	g.rails[1].dead.Store(true)
	if chunks := g.stripe(1 << 20); len(chunks) != 1 || chunks[0].lo != 0 || chunks[0].hi != 1<<20 {
		t.Fatalf("stripe over dead gate = %+v, want the single fallback chunk", chunks)
	}
}

func TestDefaultEngineStealsForLocalitySubmission(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	if got := e.Tasks().StealPolicy(); got != core.StealFullTree {
		t.Errorf("private engine steal policy = %v, want full-tree", got)
	}
}

// simPair wires one simulated rail between two engines' gates-to-be.
func simPair(f *fabric.SimFabric, caps fabric.Capabilities) (fabric.Endpoint, fabric.Endpoint) {
	a := f.OpenDomain(caps)
	b := f.OpenDomain(caps)
	ea, eb := fabric.Connect(a, b)
	return ea, eb
}

func TestGateOverSimRDMARendezvousUnderRace(t *testing.T) {
	f := fabric.NewSimFabric(fabric.SimConfig{})
	caps := fabric.Capabilities{
		Latency:   1300 * simtime.Nanosecond,
		Bandwidth: 1.5e9,
		MaxInject: 16 << 10,
		RMA:       true,
	}
	ea0, eb0 := simPair(f, caps)
	ea1, eb1 := simPair(f, caps)

	sender := NewEngine(Config{})
	receiver := NewEngine(Config{})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(ea0, ea1)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(eb0, eb1)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent large sends: nmad stripes each across both rails and
	// the simulated provider moves every chunk with its internal
	// rendezvous-by-RMA-read (chunks exceed MaxInject).
	const flows = 4
	var wg sync.WaitGroup
	for flow := 0; flow < flows; flow++ {
		payload := make([]byte, 96<<10)
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
	}
	wg.Wait()

	// The transfers actually rode the RMA path: the receiver pulled
	// chunks with RMA reads on its rails and sent FINs back.
	st := receiver.Stats()
	if st.RdvPulls == 0 || st.RdvPullBytes == 0 {
		t.Errorf("no pull-mode RMA reads recorded: %+v", st)
	}
	if st.RdvFins == 0 {
		t.Error("no pull-mode FIN recorded")
	}
	reads := uint64(0)
	for _, ep := range []fabric.Endpoint{eb0, eb1} {
		_, _, r, _ := ep.(*fabric.SimEndpoint).Stats()
		reads += r
	}
	if reads == 0 {
		t.Error("no RMA reads recorded on the receiver's sim rails")
	}
}

// heterogeneousTransferTime runs one large transfer over a fast+slow
// simulated rail pair and returns the modelled (virtual) duration.
func heterogeneousTransferTime(t *testing.T, even bool, payload []byte) simtime.Duration {
	t.Helper()
	f := fabric.NewSimFabric(fabric.SimConfig{})
	fast := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 8e9, MaxInject: 16 << 10, RMA: true}
	slow := fabric.Capabilities{Latency: 5 * simtime.Microsecond, Bandwidth: 1e9, MaxInject: 16 << 10, RMA: true}
	ea0, eb0 := simPair(f, fast)
	ea1, eb1 := simPair(f, slow)

	// Pull-mode rendezvous stripes on the receiver, so the ablation
	// hides bandwidth there too.
	sender := NewEngine(Config{})
	receiver := NewEngine(Config{})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(evenIf(even, ea0, ea1)...)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(evenIf(even, eb0, eb1)...)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := gb.Recv(9)
		done <- err
	}()
	if err := ga.Send(9, payload); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return simtime.Duration(f.Now())
}

func TestHeterogeneousStripingBeatsEven(t *testing.T) {
	payload := make([]byte, 8<<20)
	evenTime := heterogeneousTransferTime(t, true, payload)
	capTime := heterogeneousTransferTime(t, false, payload)
	t.Logf("8 MiB over 8GB/s + 1GB/s rails: even %v, capability-aware %v (%.0f%%)",
		evenTime, capTime, 100*float64(capTime)/float64(evenTime))
	if float64(capTime) > 0.6*float64(evenTime) {
		t.Errorf("capability-aware striping took %v, want ≤ 60%% of even striping's %v",
			capTime, evenTime)
	}
}

// TestRailDeathRestripesInFlightChunks: a rail whose send fails
// mid-rendezvous is marked dead and the frame re-routed onto the
// survivor. Here the sender's preferred rail rejects the RTS; the
// re-routed RTS still offers both rails' keys, the receiver reads the
// payload, and the request completes cleanly instead of failing.
func TestRailDeathRestripesInFlightChunks(t *testing.T) {
	la0, lb0 := fabric.NewLoopbackRMA()
	la1, lb1 := fabric.NewLoopbackRMA()
	flaky := &faultyEndpoint{Endpoint: la0, failKind: KindRTS}

	sender := NewEngine(Config{})
	receiver := NewEngine(Config{})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(flaky, la1)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(lb0, lb1)
	if err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	done := make(chan struct{})
	var got []byte
	var recvErr error
	go func() {
		defer close(done)
		got, recvErr = gb.Recv(5)
	}()
	if err := ga.Send(5, payload); err != nil {
		t.Fatalf("multirail send with one dead rail should survive: %v", err)
	}
	<-done
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted after the re-route")
	}
	if Kind(flaky.failedKind.Load()) != KindRTS {
		t.Fatal("test did not exercise the failure path")
	}
	if st := sender.Stats(); st.Restripes == 0 {
		t.Error("no re-routed frames recorded")
	}
	rails := ga.RailStats()
	if !rails[0].Dead {
		t.Error("failed rail not marked dead")
	}
	if rails[1].Dead {
		t.Error("surviving rail marked dead")
	}
	// Traffic keeps flowing on the survivor.
	if err := ga.Send(6, []byte("still alive")); err != nil {
		t.Fatal(err)
	}
	if msg, err := gb.Recv(6); err != nil || string(msg) != "still alive" {
		t.Fatalf("post-death Recv = %q, %v", msg, err)
	}
}

func TestRailStatsTieOut(t *testing.T) {
	sender := NewEngine(Config{})
	receiver := NewEngine(Config{})
	defer sender.Close()
	defer receiver.Close()
	a0, b0 := MemPair()
	a1, b1 := MemPair()
	ga, err := sender.NewGate(a0, a1)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGate(b0, b1)
	if err != nil {
		t.Fatal(err)
	}

	sent := 0
	for i := 0; i < 10; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 100)
		sent += len(msg)
		if err := ga.Send(uint64(i), msg); err != nil {
			t.Fatal(err)
		}
		if _, err := gb.Recv(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, 256<<10)
	sent += len(big)
	done := make(chan error, 1)
	go func() {
		_, err := gb.Recv(99)
		done <- err
	}()
	if err := ga.Send(99, big); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Σ sender per-rail payload bytes + Σ receiver per-rail pulled
	// bytes == Σ request payload bytes (eager frames carry the small
	// messages, RMA reads the large one, control frames carry none),
	// and Σ per-rail frames == engine FramesSent.
	var bytesSum, framesSum uint64
	sendStats, recvStats := ga.RailStats(), gb.RailStats()
	for i, r := range sendStats {
		bytesSum += r.Bytes + recvStats[i].PullBytes
		framesSum += r.Frames
	}
	if bytesSum != uint64(sent) {
		t.Errorf("Σ per-rail bytes = %d, want %d", bytesSum, sent)
	}
	if st := sender.Stats(); framesSum != st.FramesSent {
		t.Errorf("Σ per-rail frames = %d, want FramesSent = %d", framesSum, st.FramesSent)
	}
	// Both rails carried some of the payload.
	for i, r := range sendStats {
		if r.Bytes+recvStats[i].PullBytes == 0 {
			t.Errorf("rail %d carried no bytes; striping did not spread the payload", i)
		}
	}
}

// benchStripe runs wall-clock transfers over a real-time (TimeScale 1)
// fast+slow simulated rail pair: the acceptance benchmark for
// capability-aware striping. Run BenchmarkStripeHeterogeneous against
// BenchmarkStripeHeterogeneousEven to compare.
func benchStripe(b *testing.B, even bool) {
	f := fabric.NewSimFabric(fabric.SimConfig{TimeScale: 1})
	fast := fabric.Capabilities{Latency: simtime.Microsecond, Bandwidth: 8e9, MaxInject: 16 << 10, RMA: true}
	slow := fabric.Capabilities{Latency: 5 * simtime.Microsecond, Bandwidth: 5e8, MaxInject: 16 << 10, RMA: true}
	ea0, eb0 := simPair(f, fast)
	ea1, eb1 := simPair(f, slow)
	sender := NewEngine(Config{})
	receiver := NewEngine(Config{})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGateEndpoints(evenIf(even, ea0, ea1)...)
	if err != nil {
		b.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(evenIf(even, eb0, eb1)...)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 8<<20)
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
}

// BenchmarkStripeHeterogeneous measures a 4 MiB rendezvous over one
// fast (8 GB/s) and one slow (1 GB/s) simulated rail in real time with
// capability-aware striping. Compare with the Even variant: the
// acceptance bar is ≤ 60% of its wall time.
func BenchmarkStripeHeterogeneous(b *testing.B) { benchStripe(b, false) }

// BenchmarkStripeHeterogeneousEven is the even-striping ablation of
// BenchmarkStripeHeterogeneous (the seed behaviour).
func BenchmarkStripeHeterogeneousEven(b *testing.B) { benchStripe(b, true) }
