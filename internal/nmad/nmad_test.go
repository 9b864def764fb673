package nmad

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pioman/internal/admit"
	"pioman/internal/core"
	"pioman/internal/fabric"
	"pioman/internal/topology"
)

// enginePair builds two connected engines with the given rail count and
// strategy.
// newManualEngine builds an engine on a task engine of its own with no
// progression context, on clock (nil: the wall clock): the test's own
// Schedule calls and Waits are all the progress there is.
func newManualEngine(cfg Config, clock func() int64) *Engine {
	cfg.Tasks = core.New(core.Config{Clock: clock})
	return NewEngine(cfg)
}

func enginePair(t *testing.T, rails int, strategy StrategyKind) (*Engine, *Gate, *Engine, *Gate) {
	t.Helper()
	ea := NewEngine(Config{Strategy: strategy})
	eb := NewEngine(Config{Strategy: strategy})
	var railsA, railsB []Driver
	for i := 0; i < rails; i++ {
		da, db := MemPair()
		railsA = append(railsA, da)
		railsB = append(railsB, db)
	}
	ga, err := ea.NewGate(railsA...)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := eb.NewGate(railsB...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ea.Close()
		eb.Close()
	})
	return ea, ga, eb, gb
}

func TestEagerSendRecv(t *testing.T) {
	_, ga, _, gb := enginePair(t, 1, StrategyDefault)
	msg := []byte("hello pioman")
	if err := ga.Send(42, msg); err != nil {
		t.Fatal(err)
	}
	got, err := gb.Recv(42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("received %q, want %q", got, msg)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	_, ga, _, gb := enginePair(t, 1, StrategyDefault)
	req := gb.Irecv(7)
	if req.Test() {
		t.Fatal("request complete before any send")
	}
	if err := ga.Send(7, []byte("late binding")); err != nil {
		t.Fatal(err)
	}
	if err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	if string(req.Data) != "late binding" {
		t.Errorf("Data = %q", req.Data)
	}
}

func TestUnexpectedMessageMatchedLater(t *testing.T) {
	_, ga, _, gb := enginePair(t, 1, StrategyDefault)
	if err := ga.Send(9, []byte("early")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let it arrive unexpected
	got, err := gb.Recv(9)
	if err != nil || string(got) != "early" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
}

func TestTagSeparation(t *testing.T) {
	_, ga, _, gb := enginePair(t, 1, StrategyDefault)
	r1 := gb.Irecv(1)
	r2 := gb.Irecv(2)
	if err := ga.Send(2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := ga.Send(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := r1.Wait(); err != nil || string(r1.Data) != "one" {
		t.Errorf("tag 1 got %q, %v", r1.Data, r1.Err())
	}
	if err := r2.Wait(); err != nil || string(r2.Data) != "two" {
		t.Errorf("tag 2 got %q, %v", r2.Data, r2.Err())
	}
}

func TestSameTagFIFO(t *testing.T) {
	_, ga, _, gb := enginePair(t, 1, StrategyDefault)
	for i := 0; i < 10; i++ {
		if err := ga.Send(5, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := gb.Recv(5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("message %d out of order: got %v", i, got)
		}
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	ea, ga, eb, gb := enginePair(t, 1, StrategyDefault)
	big := make([]byte, 256<<10)
	for i := range big {
		big[i] = byte(i * 31)
	}
	var recvd []byte
	var recvErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		recvd, recvErr = gb.Recv(3)
	}()
	if err := ga.Send(3, big); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if !bytes.Equal(recvd, big) {
		t.Fatal("rendezvous payload corrupted")
	}
	if ea.Stats().RdvStarted == 0 {
		t.Error("large message should have used the rendezvous protocol")
	}
	if eb.Stats().MsgsRecv != 1 {
		t.Errorf("MsgsRecv = %d, want 1", eb.Stats().MsgsRecv)
	}
}

func TestMultirailStripesData(t *testing.T) {
	_, ga, eb, gb := enginePair(t, 2, StrategyDefault)
	big := make([]byte, 300<<10)
	for i := range big {
		big[i] = byte(i ^ (i >> 8))
	}
	done := make(chan struct{})
	var recvd []byte
	var recvErr error
	go func() {
		defer close(done)
		recvd, recvErr = gb.Recv(1)
	}()
	if err := ga.Send(1, big); err != nil {
		t.Fatal(err)
	}
	<-done
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if !bytes.Equal(recvd, big) {
		t.Fatal("multirail payload corrupted")
	}
	// The receiver stripes the pull over both rails; nothing is copied.
	if got := eb.Stats().RecvCopiedBytes; got != 0 {
		t.Errorf("receive-path copies = %d bytes, want 0 (pulled)", got)
	}
	if got := eb.Stats().RdvPulls; got != 2 {
		t.Errorf("RMA reads = %d, want 2 (one per rail)", got)
	}
	for i, r := range gb.RailStats() {
		if r.PullBytes == 0 {
			t.Errorf("rail %d pulled no bytes; striping did not spread the payload", i)
		}
	}
}

func TestAggregationPacksMessages(t *testing.T) {
	ea, ga, _, gb := enginePair(t, 1, StrategyAggreg)
	const n = 50
	var reqs []*Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, ga.Isend(uint64(100+i), []byte(fmt.Sprintf("msg-%d", i))))
	}
	for _, r := range reqs {
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := gb.Recv(uint64(100 + i))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("message %d = %q", i, got)
		}
	}
	st := ea.Stats()
	if st.FramesSent >= n {
		t.Errorf("frames sent = %d for %d messages; aggregation should pack them", st.FramesSent, n)
	}
	if st.Aggregated == 0 {
		t.Error("no messages recorded as aggregated")
	}
}

func TestAggregationSingletonStaysPlain(t *testing.T) {
	ea, ga, _, gb := enginePair(t, 1, StrategyAggreg)
	if err := ga.Send(1, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	got, err := gb.Recv(1)
	if err != nil || string(got) != "solo" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
	if ea.Stats().AggrFrames != 0 {
		t.Error("a lone message should not produce an aggregate frame")
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	_, ga, _, gb := enginePair(t, 1, StrategyDefault)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := ga.Send(1, []byte{byte(i)}); err != nil {
				errs <- err
				return
			}
			if _, err := ga.Recv(2); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := gb.Recv(1); err != nil {
				errs <- err
				return
			}
			if err := gb.Send(2, []byte{byte(i)}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConcurrentSendersReceivers(t *testing.T) {
	_, ga, _, gb := enginePair(t, 1, StrategyDefault)
	const threads = 8
	const per = 25
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(2)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ga.Send(uint64(th), []byte{byte(th), byte(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(th)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				got, err := gb.Recv(uint64(th))
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				if got[0] != byte(th) || got[1] != byte(i) {
					t.Errorf("thread %d message %d: got %v", th, i, got)
				}
			}
		}(th)
	}
	wg.Wait()
}

func TestCloseCompletesOutstandingReceives(t *testing.T) {
	ea := NewEngine(Config{})
	da, db := MemPair()
	_ = db
	ga, err := ea.NewGate(da)
	if err != nil {
		t.Fatal(err)
	}
	req := ga.Irecv(1)
	if err := ea.Close(); err != nil {
		t.Fatal(err)
	}
	if err := req.Wait(); err == nil {
		t.Error("outstanding receive should fail at Close")
	}
	// Sends after close fail fast.
	req2 := ga.Isend(1, []byte("x"))
	if err := req2.Wait(); err == nil {
		t.Error("send after Close should fail")
	}
}

func TestGateNeedsRails(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	if _, err := e.NewGate(); err == nil {
		t.Error("gate with no rails should fail")
	}
}

func TestTCPDriverEndToEnd(t *testing.T) {
	dialer, accepted := tcpPair(t)
	ea := NewEngine(Config{})
	eb := NewEngine(Config{})
	defer ea.Close()
	defer eb.Close()
	ga, err := ea.NewGate(dialer)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := eb.NewGate(accepted)
	if err != nil {
		t.Fatal(err)
	}

	// Small eager message and a large rendezvous message over real TCP.
	if err := ga.Send(1, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	got, err := gb.Recv(1)
	if err != nil || string(got) != "over tcp" {
		t.Fatalf("Recv = %q, %v", got, err)
	}

	big := make([]byte, 128<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	done := make(chan struct{})
	var recvd []byte
	var recvErr error
	go func() {
		defer close(done)
		recvd, recvErr = gb.Recv(2)
	}()
	if err := ga.Send(2, big); err != nil {
		t.Fatal(err)
	}
	<-done
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if !bytes.Equal(recvd, big) {
		t.Fatal("TCP rendezvous payload corrupted")
	}
	// The TCP rail reads: the payload landed by RMA read, not a copy.
	if st := eb.Stats(); st.RdvPulls < 1 || st.RecvCopiedBytes != 0 {
		t.Errorf("receiver: %d pulls, %d bytes copied; want ≥ 1 and 0", st.RdvPulls, st.RecvCopiedBytes)
	}
}

// TestClassicRailRendezvous: over the package's own rails — MemPair
// and TCP, attached by NewGate, calibrated or behind a foreign endpoint
// type that hides their frame fast path — a rendezvous is pulled: one
// RMA read per rail straight into the posted buffer, nothing copied.
// One FIN completes the send only once the receiver holds every byte,
// and both gates quiesce clean.
func TestClassicRailRendezvous(t *testing.T) {
	memRails := func(n int) func(*testing.T) ([]Driver, []Driver) {
		return func(*testing.T) (send, recv []Driver) {
			for i := 0; i < n; i++ {
				da, db := MemPair()
				send, recv = append(send, da), append(recv, db)
			}
			return send, recv
		}
	}
	tcpRail := func(t *testing.T) ([]Driver, []Driver) {
		dialer, accepted := tcpPair(t)
		return []Driver{dialer}, []Driver{accepted}
	}
	// gate attaches the rails through NewGate, or — wrap — behind a
	// faultyEndpoint with no fault armed, reached through the generic
	// Send/Poll face.
	gate := func(e *Engine, rails []Driver, wrap bool) (*Gate, error) {
		if !wrap {
			return e.NewGate(rails...)
		}
		eps := make([]fabric.Endpoint, len(rails))
		for i, d := range rails {
			eps[i] = &faultyEndpoint{Endpoint: endpointOf(d)}
		}
		return e.NewGateEndpoints(eps...)
	}
	const size = 1 << 20
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*131 + i>>8)
	}
	for _, tc := range []struct {
		name  string
		rails func(*testing.T) (send, recv []Driver)
		wrap  bool
		cfg   Config
		pulls uint64 // RMA reads the receiver posts
	}{
		{"mem", memRails(1), false, Config{}, 1},
		{"mem-x2", memRails(2), false, Config{}, 2},
		// Calibrated rails reach mem through the generic Send/Poll face.
		{"mem-x2-calibrated", memRails(2), false, Config{Calibrate: true}, 2},
		{"mem-wrapped", memRails(1), true, Config{}, 1},
		{"tcp", tcpRail, false, Config{}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sendRails, recvRails := tc.rails(t)
			sender, receiver := NewEngine(tc.cfg), NewEngine(tc.cfg)
			defer sender.Close()
			defer receiver.Close()
			ga, err := gate(sender, sendRails, tc.wrap)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := gate(receiver, recvRails, tc.wrap)
			if err != nil {
				t.Fatal(err)
			}

			rreq := gb.IrecvInto(1, make([]byte, size))
			sreq := ga.Isend(1, payload)
			if err := sreq.Wait(); err != nil {
				t.Fatalf("send: %v", err)
			}
			if err := rreq.Wait(); err != nil {
				t.Fatalf("recv: %v", err)
			}
			if !bytes.Equal(rreq.Data, payload) {
				t.Fatal("payload corrupted")
			}
			if st := receiver.Stats(); st.RdvPulls != tc.pulls || st.RdvPullBytes != size || st.RdvFins != 1 || st.RecvCopiedBytes != 0 {
				t.Errorf("receiver: %d pulls, %d bytes read, %d FINs, %d bytes copied; want %d, %d, 1, 0",
					st.RdvPulls, st.RdvPullBytes, st.RdvFins, st.RecvCopiedBytes, tc.pulls, size)
			}
			requireClean(t, "sender", ga)
			requireClean(t, "receiver", gb)
		})
	}
}

func TestNetPipeDriver(t *testing.T) {
	ca, cb := net.Pipe()
	ea := NewEngine(Config{})
	eb := NewEngine(Config{})
	defer ea.Close()
	defer eb.Close()
	ga, err := ea.NewGate(NewTCP(ca))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := eb.NewGate(NewTCP(cb))
	if err != nil {
		t.Fatal(err)
	}
	if err := ga.Send(1, []byte("pipe")); err != nil {
		t.Fatal(err)
	}
	got, err := gb.Recv(1)
	if err != nil || string(got) != "pipe" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Kind: KindRTS, Tag: 0xDEADBEEF, MsgID: 42, FragIdx: 3, FragCnt: 7, Offset: 1024, Total: 4096}
	var buf [headerBytes]byte
	h.encode(buf[:])
	got, err := decodeHeader(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip: %+v != %+v", got, h)
	}
	if _, err := decodeHeader(buf[:5]); err == nil {
		t.Error("short header should fail to decode")
	}
}

func TestAggrPackUnpackRoundTrip(t *testing.T) {
	batch := []pendingSend{
		{hdr: Header{Tag: 1, MsgID: 10}, payload: []byte("alpha")},
		{hdr: Header{Tag: 2, MsgID: 11}, payload: []byte("")},
		{hdr: Header{Tag: 3, MsgID: 12}, payload: []byte("gamma-longer-payload")},
	}
	frames := unpackAggr(packAggr(batch, nil))
	if len(frames) != 3 {
		t.Fatalf("unpacked %d frames, want 3", len(frames))
	}
	for i, f := range frames {
		if f.Hdr.Tag != batch[i].hdr.Tag || !bytes.Equal(f.Payload, batch[i].payload) {
			t.Errorf("frame %d = %+v payload %q", i, f.Hdr, f.Payload)
		}
	}
}

func TestUnpackAggrTruncated(t *testing.T) {
	batch := []pendingSend{{hdr: Header{Tag: 1}, payload: []byte("full")}}
	raw := packAggr(batch, nil)
	if got := unpackAggr(raw[:len(raw)-2]); len(got) != 0 {
		t.Errorf("truncated aggregate should yield no frames, got %d", len(got))
	}
}

func TestStatsProgression(t *testing.T) {
	ea, ga, eb, gb := enginePair(t, 1, StrategyDefault)
	for i := 0; i < 5; i++ {
		if err := ga.Send(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := gb.Recv(1); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := ea.Stats(), eb.Stats()
	if sa.MsgsSent != 5 || sa.EagerSent != 5 {
		t.Errorf("sender stats = %+v", sa)
	}
	if sb.MsgsRecv != 5 || sb.FramesRecv < 5 {
		t.Errorf("receiver stats = %+v", sb)
	}
}

// TestFIFOCompactsWithoutFullDrain: a (gate, tag) queue that never
// fully drains — the standard double-buffered receive pattern — must
// not grow its backing slice behind an ever-longer dead prefix.
func TestFIFOCompactsWithoutFullDrain(t *testing.T) {
	q := &fifo[int]{}
	q.push(0)
	const n = 100_000
	for i := 1; i <= n; i++ {
		q.push(i)
		v, ok := q.pop()
		if !ok || v != i-1 {
			t.Fatalf("pop = %d,%v at step %d, want %d", v, ok, i, i-1)
		}
	}
	if q.empty() {
		t.Fatal("queue should still hold one entry")
	}
	if c := cap(q.items); c > 256 {
		t.Errorf("backing slice grew to %d slots for a depth-1 queue; compaction is not working", c)
	}
}

// TestNackDirectionSelectsVictim: a gate's send and receive directions
// share the msgID keyspace, so the NACK's direction field must decide
// which half fails — guessing would kill an unrelated healthy transfer
// carrying the same id.
func TestNackDirectionSelectsVictim(t *testing.T) {
	e := newManualEngine(Config{}, nil)
	defer e.Close()
	da, db := MemPair()
	defer db.Close()
	g, err := e.NewGate(da)
	if err != nil {
		t.Fatal(err)
	}
	const msgID = 7
	sst := e.getSendRdv()
	sst.req = newRequest(e)
	rst := e.getRecvRdv()
	rst.req = newRequest(e)
	rst.gate = g
	rst.msgID = msgID
	g.mu.Lock()
	g.sendRdv[msgID] = sst
	g.rdvRecv[msgID] = rst
	g.mu.Unlock()

	e.handleFrame(g, Frame{Hdr: Header{Kind: KindRdvNack, MsgID: msgID, Offset: nackRecv}})
	if !rst.req.Test() {
		t.Error("nackRecv must fail the receive half")
	}
	if sst.req.Test() {
		t.Error("nackRecv must not touch the healthy send sharing the msgID")
	}

	e.handleFrame(g, Frame{Hdr: Header{Kind: KindRdvNack, MsgID: msgID, Offset: nackSend}})
	if !sst.req.Test() {
		t.Error("nackSend must fail the send half")
	}
}

// scanZeroPair builds two engines joined by one mem rail, each on its
// own task engine with no progression context over the explicit 8-CPU
// Borderline topology, with the steal config of core.NewDefault.
// Nothing here depends on the host's CPU count: the only scanner is the
// caller's Schedule(0) — which is also all Request.Wait ever scans.
func scanZeroPair(t *testing.T, tweakA func(*Config)) (ga, gb *Gate, drive func(...*Request)) {
	t.Helper()
	newEngine := func(tweak func(*Config)) *Engine {
		cfg := Config{
			Tasks: core.New(core.Config{
				Topology:      topology.Borderline(),
				AdaptiveDrain: true,
				Steal:         core.StealConfig{Policy: core.StealFullTree, Adaptive: true},
			}),
		}
		if tweak != nil {
			tweak(&cfg)
		}
		return NewEngine(cfg)
	}
	ea, eb := newEngine(tweakA), newEngine(nil)
	da, db := MemPair()
	var err error
	if ga, err = ea.NewGate(da); err != nil {
		t.Fatal(err)
	}
	if gb, err = eb.NewGate(db); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ea.Close()
		eb.Close()
	})
	drive = func(reqs ...*Request) {
		t.Helper()
		for pass := 0; pass < 10000; pass++ {
			done := true
			for _, r := range reqs {
				done = done && r.Test()
			}
			if done {
				for i, r := range reqs {
					if r.Err() != nil {
						t.Fatalf("request %d: %v", i, r.Err())
					}
				}
				return
			}
			ea.Tasks().Schedule(0)
			eb.Tasks().Schedule(0)
		}
		t.Fatal("requests did not complete within 10000 Schedule(0) passes: progression work is not on CPU 0's path")
	}
	return ga, gb, drive
}

// TestProgressionReachableFromCPU0: every progression task (rail polls,
// packet sends, the deadline sweep) must sit on a queue CPU 0's scan
// reaches, whatever the topology — a waiter helping through Schedule(0)
// is the only progression an engine on a task engine without a
// progression context is guaranteed.
func TestProgressionReachableFromCPU0(t *testing.T) {
	t.Run("eager ping-pong", func(t *testing.T) {
		ga, gb, drive := scanZeroPair(t, nil)
		ping, pong := gb.Irecv(1), ga.Irecv(2)
		drive(ga.Isend(1, []byte("ping")), ping)
		drive(gb.Isend(2, ping.Data), pong)
		if string(pong.Data) != "ping" {
			t.Errorf("round trip returned %q", pong.Data)
		}
	})
	t.Run("1 MiB rendezvous into IrecvInto", func(t *testing.T) {
		ga, gb, drive := scanZeroPair(t, nil)
		msg := bytes.Repeat([]byte{0xA5, 0x5A, 0x3C, 0xC3}, 1<<18)
		buf := make([]byte, len(msg))
		recv := gb.IrecvInto(3, buf)
		drive(ga.Isend(3, msg), recv)
		if !bytes.Equal(buf, msg) {
			t.Error("rendezvous payload corrupted")
		}
	})
	t.Run("AdmitBlock send parked then released", func(t *testing.T) {
		ga, gb, drive := scanZeroPair(t, func(c *Config) {
			c.Admit = &admit.Config{GateRequests: 1, GateBytes: 1 << 20}
			c.AdmitPolicy = AdmitBlock
		})
		r1, r2 := gb.Irecv(1), gb.Irecv(2)
		s1 := ga.Isend(1, []byte("head"))
		s2 := ga.Isend(2, []byte("parked"))
		if s2.Test() {
			t.Fatal("second send completed past a 1-request budget")
		}
		drive(s1, s2, r1, r2)
		if string(r2.Data) != "parked" {
			t.Errorf("parked send delivered %q", r2.Data)
		}
	})
}
