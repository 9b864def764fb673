package nmad

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/fabric"
	"pioman/internal/simtime"
)

// errInjectedSend is the error faultyEndpoint's injected sends return.
var errInjectedSend = errors.New("injected send failure")

// faultyEndpoint wraps a reading rail and injects failures on demand.
// Being a foreign endpoint type, it also hides the package rails' frame
// fast path: the gate reaches the rail through the generic Send/Poll
// face.
type faultyEndpoint struct {
	fabric.Endpoint
	sendErr  atomic.Pointer[error]
	pollErr  atomic.Pointer[error]
	sends    atomic.Int64
	failKth  int64 // fail the k-th send (1-based); 0 = never
	failKind Kind  // fail every frame of this kind; 0 = none
	// failedKind records the frame kind an injected send failure carried.
	failedKind atomic.Uint32

	// holdReads parks read completions in held instead of delivering
	// them, so a read stays in flight; releasing delivers them.
	holdReads atomic.Bool
	mu        sync.Mutex
	held      []fabric.Event
}

// faultyLoopback returns a loopback RMA pair whose near end is wrapped
// in a faultyEndpoint; the far end is the test's to play.
func faultyLoopback() (*faultyEndpoint, *fabric.LoopbackEndpoint) {
	near, far := fabric.NewLoopbackRMA()
	return &faultyEndpoint{Endpoint: near}, far
}

func (f *faultyEndpoint) Send(imm, payload []byte) error {
	n := f.sends.Add(1)
	if ep := f.sendErr.Load(); ep != nil {
		return *ep
	}
	if (f.failKth > 0 && n == f.failKth) || (f.failKind != 0 && Kind(imm[0]) == f.failKind) {
		f.failedKind.Store(uint32(imm[0]))
		return errInjectedSend
	}
	return f.Endpoint.Send(imm, payload)
}

func (f *faultyEndpoint) Poll() (fabric.Event, bool, error) {
	if ep := f.pollErr.Load(); ep != nil {
		return fabric.Event{}, false, *ep
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.holdReads.Load() && len(f.held) > 0 {
		ev := f.held[0]
		f.held = f.held[1:]
		return ev, true, nil
	}
	ev, ok, err := f.Endpoint.Poll()
	if ok && ev.Kind == fabric.EventRMADone && f.holdReads.Load() {
		f.held = append(f.held, ev)
		return fabric.Event{}, false, nil
	}
	return ev, ok, err
}

func (f *faultyEndpoint) RMARead(key fabric.RKey, offset int, local []byte, ctx any) error {
	return f.Endpoint.(fabric.RMAEndpoint).RMARead(key, offset, local, ctx)
}

func (f *faultyEndpoint) Domain() fabric.Domain { return f.Endpoint.(fabric.Domained).Domain() }

// sendRaw puts one frame (header, optional offer extension, payload)
// on a rail's far end, below any engine.
func sendRaw(t *testing.T, ep fabric.Endpoint, hdr Header, ext, payload []byte) {
	t.Helper()
	imm := make([]byte, headerBytes, headerBytes+len(ext))
	hdr.encode(imm)
	if err := ep.Send(append(imm, ext...), payload); err != nil {
		t.Fatal(err)
	}
}

// pollRaw pops the next frame header a rail's far end received.
func pollRaw(ep fabric.Endpoint) (Header, bool) {
	ev, ok, _ := ep.Poll()
	if !ok || ev.Kind != fabric.EventRecv {
		return Header{}, false
	}
	hdr, err := decodeHeader(ev.Imm)
	return hdr, err == nil
}

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
			fd, _ := faultyLoopback()
			fd.failKth = 1
			// Explicit progression: every Isend is queued before the first
			// Schedule, so the aggregation flush packs all of them into
			// the one frame that fails.
			e := NewEngine(Config{Strategy: tc.strategy, NoAutoProgress: true})
			defer e.Close()
			g, err := e.NewGateEndpoints(fd)
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
	fd, _ := faultyLoopback()
	boom := errors.New("wire gone")
	fd.sendErr.Store(&boom)
	e := NewEngine(Config{})
	defer e.Close()
	g, err := e.NewGateEndpoints(fd)
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

// latencyRail gives a loopback rail a latency, so eager routing prefers
// the rail without one. The RMA and Domain faces are promoted.
type latencyRail struct{ *fabric.LoopbackEndpoint }

func (r latencyRail) Capabilities() fabric.Capabilities {
	caps := r.LoopbackEndpoint.Capabilities()
	caps.Latency = simtime.Microsecond
	return caps
}

func TestReceiveSideDeathPropagatesToPeer(t *testing.T) {
	la0, lb0 := fabric.NewLoopbackRMA()
	la1, lb1 := fabric.NewLoopbackRMA()
	fd := &faultyEndpoint{Endpoint: lb1}
	sender := NewEngine(Config{})
	receiver := NewEngine(Config{})
	defer sender.Close()
	defer receiver.Close()
	// The sender's control frames prefer rail 1, the one about to die.
	ga, err := sender.NewGateEndpoints(latencyRail{la0}, la1)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGateEndpoints(lb0, fd)
	if err != nil {
		t.Fatal(err)
	}

	// Rail 1 dies on the receiver's side only. The sender still thinks
	// it is alive, but the death closed the transport, so the sender's
	// RTS onto rail 1 fails at Send time and is re-routed — no frame
	// feeds a ring nobody polls — and the receiver reads the payload
	// over its surviving rail.
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
		t.Fatal("rendezvous hung: frames went to the dead rail")
	}
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted after re-route")
	}
	if st := sender.Stats(); st.Restripes == 0 {
		t.Error("sender never re-routed onto the surviving rail")
	}
	if rs := gb.RailStats(); rs[0].PullBytes != uint64(len(payload)) {
		t.Errorf("surviving rail read %d bytes, want the whole payload", rs[0].PullBytes)
	}
}

// TestPartialRailDeathFailsReassemblyKeepsGate: a receive whose only
// offered rail dies mid-read has no rail left to read through, so it
// fails visibly (and NACKs the sender) — but the gate survives on its
// other rail.
func TestPartialRailDeathFailsReassemblyKeepsGate(t *testing.T) {
	near0, far0 := fabric.NewLoopbackRMA()
	fd, far1 := faultyLoopback()
	fd.holdReads.Store(true)
	e := NewEngine(Config{})
	defer e.Close()
	g, err := e.NewGateEndpoints(near0, fd)
	if err != nil {
		t.Fatal(err)
	}
	recv := g.Irecv(7)

	// Hand-deliver an RTS on the healthy rail whose offer covers rail 1
	// only: the engine posts its read there, and the read stays in
	// flight.
	payload := make([]byte, 1<<20)
	reg, err := far1.Domain().RegisterMemory(payload)
	if err != nil {
		t.Fatal(err)
	}
	rts := Header{Kind: KindRTS, Tag: 7, MsgID: 1, Total: uint32(len(payload))}
	sendRaw(t, far0, rts, appendOfferEntry(nil, 1, uint64(reg.Key())), nil)
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().RdvPulls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("read never posted")
		}
		time.Sleep(time.Millisecond)
	}

	// Rail 1 dies. Its read never completes and no other rail is
	// offered, so the receive must fail promptly instead of hanging —
	// but the gate survives on rail 0.
	boom := errors.New("rail 1 down")
	fd.pollErr.Store(&boom)
	select {
	case <-recv.Done():
		if !errors.Is(recv.Err(), errNoReadRail) {
			t.Errorf("receive failed with %v, want errNoReadRail", recv.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receive hung after partial rail death")
	}
	// The sender is told: a NACK for its half.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if h, ok := pollRaw(far0); ok && h.Kind == KindRdvNack && h.MsgID == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no NACK reached the sender")
		}
		time.Sleep(time.Millisecond)
	}
	// Eager traffic still flows over the survivor.
	sendRaw(t, far0, Header{Kind: KindEager, Tag: 8, MsgID: 2, Total: 10}, nil, []byte("still here"))
	if got, err := g.Recv(8); err != nil || string(got) != "still here" {
		t.Fatalf("post-death Recv = %q, %v", got, err)
	}
}

func TestPollFailureFailsOutstandingRequests(t *testing.T) {
	fd, _ := faultyLoopback()
	e := NewEngine(Config{})
	defer e.Close()
	g, err := e.NewGateEndpoints(fd)
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
	fd, _ := faultyLoopback()
	e := NewEngine(Config{})
	defer e.Close()
	g, err := e.NewGateEndpoints(fd)
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
	fd, _ := faultyLoopback()
	ga, err := e.NewGateEndpoints(fd)
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

	// side is one gate, its four requests, the far end of its rail,
	// the payload the far end offers for reading, and the frames the
	// engine has put on the rail so far, by kind.
	type side struct {
		g     *Gate
		fd    *faultyEndpoint
		peer  *fabric.LoopbackEndpoint
		offer []byte
		reqs  []*Request
		sent  map[Kind]Header
	}
	send := func(s *side, hdr Header, payload []byte) {
		t.Helper()
		sendRaw(t, s.peer, hdr, nil, payload)
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
			// The gate's read completions are held, so the read stays
			// in flight until finish releases them.
			name: "reading receive",
			post: func(g *Gate) *Request { return g.Irecv(11) },
			feed: func(s *side) {
				sendRaw(t, s.peer, Header{Kind: KindRTS, Tag: 11, MsgID: 1, Total: uint32(len(big))}, s.offer, nil)
			},
			count:  func(r IdleReport) int { return r.RecvRendezvous },
			finish: func(s *side) { s.fd.holdReads.Store(false) },
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
		fd, far := faultyLoopback()
		fd.holdReads.Store(true)
		reg, err := far.Domain().RegisterMemory(big)
		if err != nil {
			t.Fatal(err)
		}
		s := &side{fd: fd, peer: far, offer: appendOfferEntry(nil, 0, uint64(reg.Key())), sent: map[Kind]Header{}}
		if s.g, err = e.NewGateEndpoints(s.fd); err != nil {
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
		for h, ok := pollRaw(s.peer); ok; h, ok = pollRaw(s.peer) {
			s.sent[h.Kind] = h
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
		t.Errorf("gate B read %d bytes, corrupted or short", len(got))
	}
	if !b.g.CheckIdle().Clean() {
		t.Errorf("surviving gate leaked: %+v", b.g.CheckIdle())
	}
}
