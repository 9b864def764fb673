package nmad

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// errInjectedSend is the error faultyDriver's failKth send returns.
var errInjectedSend = errors.New("injected send failure")

// faultyDriver wraps a driver and injects failures on demand.
type faultyDriver struct {
	inner   Driver
	sendErr atomic.Pointer[error]
	pollErr atomic.Pointer[error]
	sends   atomic.Int64
	failKth int64 // fail the k-th send (1-based); 0 = never
	// failedKind records the frame kind the failKth send carried.
	failedKind atomic.Uint32
}

func (d *faultyDriver) Name() string { return "faulty" }

func (d *faultyDriver) Send(hdr Header, payload []byte) error {
	n := d.sends.Add(1)
	if ep := d.sendErr.Load(); ep != nil {
		return *ep
	}
	if d.failKth > 0 && n == d.failKth {
		d.failedKind.Store(uint32(hdr.Kind))
		return errInjectedSend
	}
	return d.inner.Send(hdr, payload)
}

func (d *faultyDriver) Poll() (Frame, bool, error) {
	if ep := d.pollErr.Load(); ep != nil {
		return Frame{}, false, *ep
	}
	return d.inner.Poll()
}

func (d *faultyDriver) Close() error { return d.inner.Close() }

// TestSendFailureCompletesRequestWithError: eager sends whose first
// frame dies on a failing rail complete with that error — one frame per
// message under the default strategy, one aggregate frame carrying all
// of them under aggregation. Either way the requests are owned by the
// ack window, so the failure must also leave the window empty.
func TestSendFailureCompletesRequestWithError(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy StrategyKind
		frame    Kind // what the failing frame must be
	}{
		{"default", StrategyDefault, KindEager},
		{"aggreg", StrategyAggreg, KindAggr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			da, db := MemPair()
			_ = db
			fd := &faultyDriver{inner: da, failKth: 1}
			// Explicit progression: every Isend is queued before the first
			// Schedule, so the aggregation flush packs all of them into
			// the one frame that fails.
			e := NewEngine(Config{Strategy: tc.strategy, NoAutoProgress: true})
			defer e.Close()
			g, err := e.NewGate(fd)
			if err != nil {
				t.Fatal(err)
			}
			reqs := []*Request{
				g.Isend(1, []byte("doomed")),
				g.Isend(2, []byte("also doomed")),
				g.Isend(3, []byte("doomed too")),
			}
			for i, req := range reqs {
				if err := req.Wait(); !errors.Is(err, errInjectedSend) {
					t.Errorf("send %d over failing rail = %v, want the injected failure", i, err)
				}
			}
			if n := g.CheckIdle().EagerPending; n != 0 {
				t.Errorf("%d failed sends left in the ack window", n)
			}
			if n := fd.sends.Load(); n != 1 {
				t.Errorf("%d frames reached the driver, want the one that failed", n)
			}
			if k := Kind(fd.failedKind.Load()); k != tc.frame {
				t.Errorf("failing frame was %v, want %v", k, tc.frame)
			}
		})
	}
}

func TestSendDeathOnLastRailFailsGate(t *testing.T) {
	da, db := MemPair()
	_ = db
	fd := &faultyDriver{inner: da}
	boom := errors.New("wire gone")
	fd.sendErr.Store(&boom)
	e := NewEngine(Config{})
	defer e.Close()
	g, err := e.NewGate(fd)
	if err != nil {
		t.Fatal(err)
	}
	recv := g.Irecv(1)
	// The send kills the gate's only rail; the posted receive must
	// fail too, exactly as a poll-detected death would make it.
	if err := g.Isend(2, []byte("doomed")).Wait(); err == nil {
		t.Fatal("send over dead rail should report an error")
	}
	select {
	case <-recv.Done():
		if recv.Err() == nil {
			t.Error("posted receive should fail when the last rail dies")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("posted receive hung after send-path rail death")
	}
}

// fillPeerRing fills the 4096-slot rx ring behind a MemPair end with raw
// driver frames, below any engine: nothing drains the peer, so the next
// frame sent on d meets backpressure.
func fillPeerRing(t *testing.T, d Driver) {
	t.Helper()
	for i := 0; i < 4096; i++ {
		hdr := Header{Kind: KindEager, Tag: 1, MsgID: uint64(i + 1), Total: 1}
		if err := d.Send(hdr, []byte{1}); err != nil {
			t.Fatalf("raw frame %d into a non-full ring: %v", i, err)
		}
	}
}

func TestBackpressureDoesNotKillRail(t *testing.T) {
	da, db := MemPair()
	fillPeerRing(t, da)
	// Explicit progression: each Schedule pass runs the pending packet
	// task once, and the wall-clock retransmission deadline (500 ms) is
	// far beyond the test.
	e := NewEngine(Config{NoAutoProgress: true})
	defer e.Close()
	g, err := e.NewGate(da)
	if err != nil {
		t.Fatal(err)
	}
	// The eager frame meets the full ring: a transient condition, so the
	// rail stays alive and the message stays in the ack window for the
	// sweep to retransmit once the ring drains.
	req := g.Isend(1, []byte{1})
	for i := 0; i < 4; i++ {
		e.Tasks().Schedule(0)
	}
	if req.Test() {
		t.Fatalf("backpressured eager send completed (err %v); it belongs to the ack window", req.Err())
	}
	if g.RailStats()[0].Dead {
		t.Fatal("transient backpressure marked the rail dead")
	}
	if n := g.CheckIdle().EagerPending; n != 1 {
		t.Fatalf("ack window holds %d messages, want the backpressured one", n)
	}
	// Drain one slot: the rail carries frames again.
	if _, ok, _ := db.Poll(); !ok {
		t.Fatal("peer ring unexpectedly empty")
	}
	g.Isend(1, []byte{2})
	for i := 0; i < 4; i++ {
		e.Tasks().Schedule(0)
	}
	if n := e.Stats().FramesSent; n != 1 {
		t.Fatalf("%d frames sent after the drain, want 1", n)
	}
}

func TestBackpressuredRendezvousFailsVisibly(t *testing.T) {
	da, db := MemPair()
	_ = db
	fillPeerRing(t, da)
	e := NewEngine(Config{})
	defer e.Close()
	g, err := e.NewGate(da)
	if err != nil {
		t.Fatal(err)
	}
	// The ring is full, so the rendezvous' RTS control frame hits
	// backpressure and, carrying no request of its own, must fail the
	// waiting send instead of leaving it hanging forever.
	req := g.Isend(2, make([]byte, 1<<20))
	select {
	case <-req.Done():
		if !errors.Is(req.Err(), ErrBackpressure) {
			t.Errorf("backpressured rendezvous = %v, want ErrBackpressure", req.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backpressured rendezvous hung instead of failing")
	}
	if g.RailStats()[0].Dead {
		t.Error("backpressure marked the rail dead")
	}
}

func TestReceiveSideDeathPropagatesToPeer(t *testing.T) {
	da0, db0 := MemPair()
	da1, db1 := MemPair()
	fd := &faultyDriver{inner: db1}
	sender := NewEngine(Config{})
	receiver := NewEngine(Config{})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGate(da0, da1)
	if err != nil {
		t.Fatal(err)
	}
	caps := capsForDriver(db0)
	gb, err := receiver.NewGateEndpoints(WrapDriver(db0, caps), WrapDriver(fd, caps))
	if err != nil {
		t.Fatal(err)
	}

	// Rail 1 dies on the receiver's side only. The sender still thinks
	// it is alive, but the death closed the transport, so the sender's
	// next striped fragment onto rail 1 fails at Send time and is
	// re-routed — no fragments feed a ring nobody polls.
	boom := errors.New("receiver rail 1 down")
	fd.pollErr.Store(&boom)
	deadline := time.Now().Add(5 * time.Second)
	for !gb.RailStats()[1].Dead {
		if time.Now().After(deadline) {
			t.Fatal("receiver never marked rail 1 dead")
		}
		time.Sleep(time.Millisecond)
	}

	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	done := make(chan struct{})
	var got []byte
	var recvErr error
	go func() {
		defer close(done)
		got, recvErr = gb.Recv(3)
	}()
	if err := ga.Send(3, payload); err != nil {
		t.Fatalf("send after peer-side rail death: %v", err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("rendezvous hung: fragments went to the dead rail")
	}
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted after re-route")
	}
	if st := sender.Stats(); st.Restripes == 0 {
		t.Error("sender never re-striped onto the surviving rail")
	}
}

func TestPartialRailDeathFailsReassemblyKeepsGate(t *testing.T) {
	da0, db0 := MemPair()
	da1, db1 := MemPair()
	_ = da1
	fd := &faultyDriver{inner: db1}
	e := NewEngine(Config{})
	defer e.Close()
	caps := capsForDriver(db0)
	g, err := e.NewGateEndpoints(WrapDriver(db0, caps), WrapDriver(fd, caps))
	if err != nil {
		t.Fatal(err)
	}
	recv := g.Irecv(7)

	// Hand-deliver an RTS on the healthy rail: the engine sets up a
	// reassembly and asks for the payload to be pushed.
	rts := Header{Kind: KindRTS, Tag: 7, MsgID: 1, Total: 1 << 20}
	if err := da0.Send(rts, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g.CheckIdle().RecvRendezvous == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reassembly never set up")
		}
		time.Sleep(time.Millisecond)
	}

	// Rail 1 dies. Its in-flight fragments are lost forever, so the
	// reassembly must fail promptly instead of hanging — but the gate
	// survives on rail 0.
	boom := errors.New("rail 1 down")
	fd.pollErr.Store(&boom)
	select {
	case <-recv.Done():
		if recv.Err() == nil {
			t.Error("reassembly should fail when a carrying rail dies")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reassembly hung after partial rail death")
	}
	// Eager traffic still flows over the survivor.
	eager := Header{Kind: KindEager, Tag: 8, MsgID: 2, Total: 10}
	if err := da0.Send(eager, []byte("still here")); err != nil {
		t.Fatal(err)
	}
	if got, err := g.Recv(8); err != nil || string(got) != "still here" {
		t.Fatalf("post-death Recv = %q, %v", got, err)
	}
}

func TestPollFailureFailsOutstandingRequests(t *testing.T) {
	da, db := MemPair()
	_ = db
	fd := &faultyDriver{inner: da}
	e := NewEngine(Config{})
	defer e.Close()
	g, err := e.NewGate(fd)
	if err != nil {
		t.Fatal(err)
	}
	recv := g.Irecv(1)
	// Kill the rail: polling must fail the posted receive promptly.
	boom := errors.New("link down")
	fd.pollErr.Store(&boom)
	select {
	case <-recv.Done():
		if !errors.Is(recv.Err(), boom) {
			t.Errorf("recv error = %v, want link down", recv.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("posted receive hung after rail failure")
	}
}

func TestPollFailureFailsRendezvousSender(t *testing.T) {
	da, db := MemPair()
	_ = db
	fd := &faultyDriver{inner: da}
	e := NewEngine(Config{})
	defer e.Close()
	g, err := e.NewGate(fd)
	if err != nil {
		t.Fatal(err)
	}
	// A large send waits for a FIN that will never come.
	req := g.Isend(2, make([]byte, 1<<20))
	boom := errors.New("link down")
	fd.pollErr.Store(&boom)
	select {
	case <-req.Done():
		if req.Err() == nil {
			t.Error("rendezvous sender should observe the failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rendezvous sender hung after rail failure")
	}
}

func TestTCPPeerDisappearsMidStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted

	e := NewEngine(Config{})
	defer e.Close()
	g, err := e.NewGate(NewTCP(conn))
	if err != nil {
		t.Fatal(err)
	}
	recv := g.Irecv(1)
	// The peer vanishes without a clean shutdown.
	peer.Close()
	select {
	case <-recv.Done():
		if recv.Err() == nil {
			t.Error("receive should fail when the TCP peer disappears")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receive hung after TCP peer closed the connection")
	}
}

func TestHealthyGateUnaffectedByFailingGate(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	// Gate A fails; gate B (same engine) keeps working.
	da, _ := MemPair()
	fd := &faultyDriver{inner: da}
	ga, err := e.NewGate(fd)
	if err != nil {
		t.Fatal(err)
	}
	peerEngine := NewEngine(Config{})
	defer peerEngine.Close()
	db1, db2 := MemPair()
	gb, err := e.NewGate(db1)
	if err != nil {
		t.Fatal(err)
	}
	gPeer, err := peerEngine.NewGate(db2)
	if err != nil {
		t.Fatal(err)
	}

	doomed := ga.Irecv(1)
	boom := errors.New("down")
	fd.pollErr.Store(&boom)
	<-doomed.Done()

	// Traffic on the healthy gate still flows.
	if err := gb.Send(5, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	data, err := gPeer.Recv(5)
	if err != nil || string(data) != "alive" {
		t.Fatalf("healthy gate Recv = %q, %v", data, err)
	}
}

// TestGateFailureTouchesOnlyItsOwnState: protocol state lives on the
// gate, so a dying gate fails exactly its own requests and a leak audit
// counts exactly its own state. Two gates of one engine each hold one
// of every kind of in-flight state, with the far ends driven by hand;
// gate A's only rail then dies.
func TestGateFailureTouchesOnlyItsOwnState(t *testing.T) {
	e := NewEngine(Config{NoAutoProgress: true, RdvTimeout: int64(time.Hour)})
	defer e.Close()
	pump := func() {
		for i := 0; i < 64; i++ {
			e.Tasks().Schedule(0)
		}
	}
	big := bytes.Repeat([]byte{0xB6}, 32<<10) // past the eager threshold
	small := []byte("small")

	// side is one gate, its four requests, the far end of its rail and
	// the frames the engine has put on it so far, by kind.
	type side struct {
		g    *Gate
		fd   *faultyDriver
		peer Driver
		reqs []*Request
		sent map[Kind]Header
	}
	send := func(s *side, hdr Header, payload []byte) {
		t.Helper()
		if err := s.peer.Send(hdr, payload); err != nil {
			t.Fatal(err)
		}
	}
	states := []struct {
		name   string
		post   func(g *Gate) *Request // puts the state in flight
		feed   func(s *side)          // the peer frame the state needs to exist, if any
		count  func(r IdleReport) int // how CheckIdle reports it
		finish func(s *side)          // the peer frame that completes it
	}{
		{
			name:  "send rendezvous",
			post:  func(g *Gate) *Request { return g.Isend(10, big) },
			count: func(r IdleReport) int { return r.SendRendezvous },
			finish: func(s *side) {
				send(s, Header{Kind: KindFin, Tag: 10, MsgID: s.sent[KindRTS].MsgID}, nil)
			},
		},
		{
			name: "reassembling receive",
			post: func(g *Gate) *Request { return g.Irecv(11) },
			feed: func(s *side) {
				send(s, Header{Kind: KindRTS, Tag: 11, MsgID: 1, Total: uint32(len(big))}, nil)
			},
			count: func(r IdleReport) int { return r.RecvRendezvous },
			finish: func(s *side) {
				send(s, Header{Kind: KindData, Tag: 11, MsgID: 1, FragCnt: 1, Total: uint32(len(big))}, big)
			},
		},
		{
			name:  "unacked eager",
			post:  func(g *Gate) *Request { return g.Isend(12, small) },
			count: func(r IdleReport) int { return r.EagerPending },
			finish: func(s *side) {
				send(s, Header{Kind: KindEagerAck, Tag: 12, MsgID: s.sent[KindEager].MsgID}, nil)
			},
		},
		{
			name:  "posted receive",
			post:  func(g *Gate) *Request { return g.Irecv(13) },
			count: func(r IdleReport) int { return r.PostedRecvs },
			finish: func(s *side) {
				send(s, Header{Kind: KindEager, Tag: 13, MsgID: 2, Total: uint32(len(small))}, small)
			},
		},
	}

	var sides [2]*side
	for i := range sides {
		near, far := MemPair()
		s := &side{fd: &faultyDriver{inner: near}, peer: far, sent: map[Kind]Header{}}
		var err error
		if s.g, err = e.NewGate(s.fd); err != nil {
			t.Fatal(err)
		}
		for _, st := range states {
			s.reqs = append(s.reqs, st.post(s.g))
			if st.feed != nil {
				st.feed(s)
			}
		}
		sides[i] = s
	}
	pump()
	for _, s := range sides {
		for f, ok, _ := s.peer.Poll(); ok; f, ok, _ = s.peer.Poll() {
			s.sent[f.Hdr.Kind] = f.Hdr
		}
	}
	a, b := sides[0], sides[1]
	audit := func(when string, s *side, want int) {
		t.Helper()
		rep := s.g.CheckIdle()
		for i, st := range states {
			if got := st.count(rep); got != want {
				t.Errorf("%s: gate %d counts %d %s, want %d", when, s.g.ID(), got, st.name, want)
			}
			if done := s.reqs[i].Test(); done != (want == 0) {
				t.Errorf("%s: gate %d %s request done = %v", when, s.g.ID(), st.name, done)
			}
		}
	}
	audit("in flight", a, 1)
	audit("in flight", b, 1)

	boom := errors.New("rail A down")
	a.fd.pollErr.Store(&boom)
	pump()
	audit("after A died", a, 0)
	audit("after A died", b, 1)
	for i, st := range states {
		if err := a.reqs[i].Err(); !errors.Is(err, boom) {
			t.Errorf("gate A %s failed with %v, want the rail's error", st.name, err)
		}
	}
	if !a.g.CheckIdle().Clean() {
		t.Errorf("dead gate leaked: %+v", a.g.CheckIdle())
	}

	for _, st := range states {
		st.finish(b)
	}
	pump()
	audit("after B finished", b, 0)
	for i, st := range states {
		if err := b.reqs[i].Err(); err != nil {
			t.Errorf("gate B %s: %v", st.name, err)
		}
	}
	if got := b.reqs[1].Data; !bytes.Equal(got, big) {
		t.Errorf("gate B reassembled %d bytes, corrupted or short", len(got))
	}
	if !b.g.CheckIdle().Clean() {
		t.Errorf("surviving gate leaked: %+v", b.g.CheckIdle())
	}
}
