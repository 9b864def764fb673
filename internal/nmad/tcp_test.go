package nmad

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"pioman/internal/fabric"
)

// TCP rail tests: the rail's own read protocol (read requests served
// by the peer rail's goroutines, responses landing in the posted
// buffer) and its goroutines' lifecycle.

// tcpPair returns the two ends of one loopback TCP connection as
// rails, closed when the test ends (closing twice is harmless).
func tcpPair(t testing.TB) (Driver, Driver) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		d   Driver
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		d, err := AcceptTCP(ln)
		ch <- accepted{d, err}
	}()
	dialer, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	t.Cleanup(func() {
		dialer.Close()
		acc.d.Close()
	})
	return dialer, acc.d
}

// tcpRailGoroutines counts live goroutines running a TCP rail's code.
func tcpRailGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "nmad.(*tcpDriver)") {
			n++
		}
	}
	return n
}

// TestTCPCloseWhileReaderBlocked: Close on a rail whose reader waits on
// its full frame ring (nobody polls it) returns promptly, and ends every
// goroutine the rail started.
func TestTCPCloseWhileReaderBlocked(t *testing.T) {
	base := tcpRailGoroutines()
	a, b := tcpPair(t)
	fillTCPRing(t, a, b, tcpRingFrames+100)
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a reader waiting for ring space")
	}
	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for n := tcpRailGoroutines(); n > base; n = tcpRailGoroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("%d TCP rail goroutines still running after Close (%d before the pair)", n, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPReadsBothWaysAtOnce: over one TCP rail, each engine sends
// four 8 MiB rendezvous to the other at once, so both rails serve large
// reads while their peers do the same. A reader that answered reads
// itself would stop reading while blocked on its write, and the two
// would deadlock; every byte must arrive exact, in time.
func TestTCPReadsBothWaysAtOnce(t *testing.T) {
	const msgs, size = 4, 8 << 20
	da, db := tcpPair(t)
	ea, eb := NewEngine(Config{}), NewEngine(Config{})
	defer ea.Close()
	defer eb.Close()
	ga, err := ea.NewGate(da)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := eb.NewGate(db)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(side, m int) []byte {
		p := make([]byte, size)
		for i := range p {
			p[i] = byte(i*7 + i>>11 + side*13 + m*29)
		}
		return p
	}
	type flow struct {
		recv *Request
		want []byte
	}
	var flows []flow
	var sends []*Request
	for m := 0; m < msgs; m++ {
		flows = append(flows,
			flow{gb.IrecvInto(uint64(m), make([]byte, size)), payload(0, m)},
			flow{ga.IrecvInto(uint64(m), make([]byte, size)), payload(1, m)})
	}
	for m := 0; m < msgs; m++ {
		sends = append(sends, ga.Isend(uint64(m), flows[2*m].want), gb.Isend(uint64(m), flows[2*m+1].want))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, r := range sends {
			r.Wait() //nolint:errcheck // checked below
		}
		for _, f := range flows {
			f.recv.Wait() //nolint:errcheck // checked below
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("rendezvous in both directions at once did not finish: the rails deadlocked")
	}
	for i, r := range sends {
		if err := r.Err(); err != nil {
			t.Errorf("send %d: %v", i, err)
		}
	}
	for i, f := range flows {
		if err := f.recv.Err(); err != nil {
			t.Errorf("recv %d: %v", i, err)
		} else if !bytes.Equal(f.recv.Data, f.want) {
			t.Errorf("recv %d corrupted", i)
		}
	}
	for _, e := range []*Engine{ea, eb} {
		if st := e.Stats(); st.RdvPulls < msgs || st.RecvCopiedBytes != 0 {
			t.Errorf("%d pulls, %d bytes copied; want ≥ %d and 0", st.RdvPulls, st.RecvCopiedBytes, msgs)
		}
	}
}

// tcpMsg is one message a raw peer read off a TCP rail: a frame's
// header, or a read request.
type tcpMsg struct {
	op     byte
	hdr    Header
	id     uint64
	key    fabric.RKey
	off, n uint32
}

// readTCPMsg parses one message of the TCP rail's wire format.
func readTCPMsg(r io.Reader) (tcpMsg, error) {
	var b [frameHdrBytes]byte
	if _, err := io.ReadFull(r, b[:1]); err != nil {
		return tcpMsg{}, err
	}
	m := tcpMsg{op: b[0]}
	switch m.op {
	case opFrame:
		if _, err := io.ReadFull(r, b[1:]); err != nil {
			return m, err
		}
		m.hdr, _ = decodeHeader(b[1:])
		body := binary.LittleEndian.Uint32(b[1+headerBytes:]) + binary.LittleEndian.Uint32(b[1+headerBytes+4:])
		_, err := io.CopyN(io.Discard, r, int64(body))
		return m, err
	case opReadReq:
		if _, err := io.ReadFull(r, b[1:readReqBytes]); err != nil {
			return m, err
		}
		m.id = binary.LittleEndian.Uint64(b[1:])
		m.key = fabric.RKey(binary.LittleEndian.Uint64(b[9:]))
		m.off, m.n = binary.LittleEndian.Uint32(b[17:]), binary.LittleEndian.Uint32(b[21:])
		return m, nil
	}
	return m, fmt.Errorf("unexpected op %d", m.op)
}

// playedTCPPeer builds an engine whose one gate is a TCP rail, and
// returns the raw far end of it for the test to play the peer, with the
// messages the engine writes parsed onto msgs.
func playedTCPPeer(t *testing.T, cfg Config) (*Engine, *Gate, net.Conn, <-chan tcpMsg) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	if peer == nil {
		t.Fatal("accept failed")
	}
	e := NewEngine(cfg)
	g, err := e.NewGate(NewTCP(conn))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.Close()
		peer.Close()
	})
	msgs := make(chan tcpMsg, 64)
	go func() {
		defer close(msgs)
		for {
			m, err := readTCPMsg(peer)
			if err != nil {
				return
			}
			msgs <- m
		}
	}()
	return e, g, peer, msgs
}

// writeTCPFrame writes one frame of the TCP rail's wire format.
func writeTCPFrame(t *testing.T, w io.Writer, hdr Header, ext []byte) {
	t.Helper()
	b := make([]byte, frameHdrBytes, frameHdrBytes+len(ext))
	b[0] = opFrame
	hdr.encode(b[1:])
	binary.LittleEndian.PutUint32(b[1+headerBytes:], uint32(len(ext)))
	if _, err := w.Write(append(b, ext...)); err != nil {
		t.Fatal(err)
	}
}

// writeTCPRTS offers size bytes of region key 1 under msgID.
func writeTCPRTS(t *testing.T, w io.Writer, msgID uint64, size int) {
	t.Helper()
	writeTCPFrame(t, w, Header{Kind: KindRTS, Tag: 1, MsgID: msgID, Total: uint32(size)}, appendOfferEntry(nil, 0, 1))
}

// answerTCPRead answers read request m with src[m.off:m.off+m.n].
func answerTCPRead(t *testing.T, w io.Writer, m tcpMsg, src []byte) {
	t.Helper()
	resp := make([]byte, readRespBytes, readRespBytes+int(m.n))
	resp[0] = opReadResp
	binary.LittleEndian.PutUint64(resp[1:], m.id)
	binary.LittleEndian.PutUint32(resp[9:], m.n)
	if _, err := w.Write(append(resp, src[m.off:m.off+m.n]...)); err != nil {
		t.Fatal(err)
	}
}

// nextTCPMsg returns the next message of kind op (a frame of kind k
// when op is opFrame), skipping others, within a few seconds.
func nextTCPMsg(t *testing.T, msgs <-chan tcpMsg, op byte, k Kind) tcpMsg {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m, ok := <-msgs:
			if !ok {
				t.Fatal("rail closed")
			}
			if m.op == op && (op != opFrame || m.hdr.Kind == k) {
				return m
			}
		case <-deadline:
			t.Fatalf("no message op %d kind %v arrived", op, k)
		}
	}
}

// pattern returns n bytes of a pattern keyed by seed.
func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*11) + seed
	}
	return p
}

// TestTCPSlowReadOutlastsRetryBudget: the test plays the serving peer
// of a TCP rail and answers the receiver's read only after several
// times its whole retry budget, at the default RdvRetries. TCP cannot
// lose a read, so the sweep neither re-posts it nor burns a retry on
// it: one read request crosses the wire, the receive completes exactly
// once, and nothing lands in its buffer after it completed.
func TestTCPSlowReadOutlastsRetryBudget(t *testing.T) {
	const size = 256 << 10
	timeout := 2 * time.Millisecond
	e, g, peer, msgs := playedTCPPeer(t, Config{RdvTimeout: int64(timeout)})
	payload := pattern(size, 0)
	buf := make([]byte, size)
	rreq := g.IrecvInto(1, buf)
	writeTCPRTS(t, peer, 9, size)
	r := nextTCPMsg(t, msgs, opReadReq, 0)
	// The budget: RdvTimeout × (2^(RdvRetries+1) − 1), 30 ms here.
	budget := timeout * (1<<(e.cfg.RdvRetries+1) - 1)
	time.Sleep(6 * budget)
	if rreq.Test() {
		t.Fatalf("receive completed before its read was answered: %v", rreq.Err())
	}
	answerTCPRead(t, peer, r, payload)
	if err := rreq.Wait(); err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !bytes.Equal(rreq.Data, payload) {
		t.Fatal("payload corrupted")
	}
	nextTCPMsg(t, msgs, opFrame, KindFin)
	// The buffer is the caller's again: nothing may land in it now.
	for i := range buf {
		buf[i] = 0xEE
	}
	time.Sleep(20 * time.Millisecond)
	for i, c := range buf {
		if c != 0xEE {
			t.Fatalf("byte %d written after the receive completed", i)
		}
	}
	for {
		select {
		case m := <-msgs:
			if m.op == opReadReq {
				t.Fatal("a second read request crossed the wire: the sweep re-posted a read TCP cannot lose")
			}
			continue
		default:
		}
		break
	}
	// One sweep may fall between the match and the read's post; none
	// may burn a retry once the read is in flight.
	if st := e.Stats(); st.RdvRetries > 1 || st.RdvTimeouts != 0 || st.RdvFins != 1 || st.MsgsRecv != 1 {
		t.Errorf("receiver: %d retries, %d timeouts, %d FINs, %d messages; want ≤ 1, 0, 1, 1",
			st.RdvRetries, st.RdvTimeouts, st.RdvFins, st.MsgsRecv)
	}
}

// slowConn throttles writes: each 32 KiB piece waits a pause first.
type slowConn struct {
	net.Conn
	pause time.Duration
}

func (c slowConn) Write(b []byte) (int, error) {
	n := 0
	for len(b) > 0 {
		piece := min(len(b), 32<<10)
		time.Sleep(c.pause)
		m, err := c.Conn.Write(b[:piece])
		n += m
		if err != nil {
			return n, err
		}
		b = b[piece:]
	}
	return n, nil
}

// TestTCPSlowServeOutlastsRetryBudget: two engines over a mem rail
// and a TCP rail whose sending side writes slowly, so serving the
// receiver's read of its TCP chunk takes several times the sender's
// whole retry budget at the default RdvRetries. Control frames ride
// the mem rail, so the sender's sweep keeps running and retransmitting
// the RTS; its TCP rail is serving the payload, so the handshake is
// alive and the sweep gives each retry back. Both sides complete,
// byte-exact, with no timeout.
func TestTCPSlowServeOutlastsRetryBudget(t *testing.T) {
	const size = 2 << 20
	timeout := 20 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	far := <-accepted
	if far == nil {
		t.Fatal("accept failed")
	}
	// 125 ms per 32 KiB piece: the TCP chunk (about a ninth of the
	// payload) takes some 1 s to serve, against a 300 ms budget that
	// must only cover the RTS and the read request, even under -race.
	ta, tb := NewTCP(slowConn{conn, 125 * time.Millisecond}), NewTCP(far)
	ma, mb := MemPair()
	cfg := Config{RdvTimeout: int64(timeout)}
	ea, eb := NewEngine(cfg), NewEngine(cfg)
	defer ea.Close()
	defer eb.Close()
	ga, err := ea.NewGate(ma, ta)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := eb.NewGate(mb, tb)
	if err != nil {
		t.Fatal(err)
	}
	payload := pattern(size, 3)
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
	if tcp := gb.RailStats()[1].PullBytes; tcp == 0 {
		t.Fatal("nothing was read over the TCP rail")
	}
	if sa, sb := ea.Stats(), eb.Stats(); sa.RdvTimeouts != 0 || sb.RdvTimeouts != 0 {
		t.Errorf("timeouts %d / %d, want none", sa.RdvTimeouts, sb.RdvTimeouts)
	}
}

// TestTCPAbandonedReadDiscarded: a receive fails (the peer NACKs it)
// while its read is posted, and the caller posts a new receive into the
// same buffer. The new receive gets its own read; the abandoned read's
// late answer is read off the wire and discarded, never landed, and the
// rail stays healthy — calibrated or not.
func TestTCPAbandonedReadDiscarded(t *testing.T) {
	for _, calibrate := range []bool{false, true} {
		t.Run(fmt.Sprint("calibrate=", calibrate), func(t *testing.T) {
			testTCPAbandonedReadDiscarded(t, Config{RdvTimeout: int64(time.Hour), Calibrate: calibrate})
		})
	}
}

func testTCPAbandonedReadDiscarded(t *testing.T, cfg Config) {
	const size = 64 << 10
	_, g, peer, msgs := playedTCPPeer(t, cfg)
	buf := make([]byte, size)
	first := g.IrecvInto(1, buf)
	writeTCPRTS(t, peer, 9, size)
	r1 := nextTCPMsg(t, msgs, opReadReq, 0)
	writeTCPFrame(t, peer, Header{Kind: KindRdvNack, Tag: 1, MsgID: 9, Offset: nackRecv}, nil)
	if err := first.Wait(); err == nil {
		t.Fatal("NACKed receive succeeded")
	}

	payload := pattern(size, 5)
	second := g.IrecvInto(1, buf)
	writeTCPRTS(t, peer, 10, size)
	r2 := nextTCPMsg(t, msgs, opReadReq, 0)
	if r2.id == r1.id {
		t.Fatal("the new receive reused the abandoned read")
	}
	answerTCPRead(t, peer, r2, payload)
	if err := second.Wait(); err != nil {
		t.Fatalf("second recv: %v", err)
	}
	// The abandoned read's late answer, then a frame: once the frame is
	// in, the rail has read the answer, and the rail still carries
	// traffic.
	answerTCPRead(t, peer, r1, pattern(size, 0x40))
	writeTCPFrame(t, peer, Header{Kind: KindEager, Tag: 2, MsgID: 11}, nil)
	if _, err := g.Recv(2); err != nil {
		t.Fatalf("eager after the discarded answer: %v", err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("the abandoned read's answer landed in the buffer")
	}
}

// TestTCPReadGoneFailsPromptly: the peer answers a read with "region
// gone". With no other rail to read through, the receive fails at the
// next sweep and NACKs the sender — it does not re-post the read until
// a retry budget runs out.
func TestTCPReadGoneFailsPromptly(t *testing.T) {
	const size = 64 << 10
	e, g, peer, msgs := playedTCPPeer(t, Config{RdvTimeout: int64(5 * time.Millisecond), RdvRetries: 50})
	rreq := g.IrecvInto(1, make([]byte, size))
	writeTCPRTS(t, peer, 9, size)
	r := nextTCPMsg(t, msgs, opReadReq, 0)
	resp := make([]byte, readRespBytes)
	resp[0] = opReadResp
	binary.LittleEndian.PutUint64(resp[1:], r.id)
	binary.LittleEndian.PutUint32(resp[9:], respGone)
	if _, err := peer.Write(resp); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rreq.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("receive still pending after its region was reported gone")
	}
	if err := rreq.Err(); !errors.Is(err, errNoReadRail) {
		t.Fatalf("recv: %v, want %v", err, errNoReadRail)
	}
	if nack := nextTCPMsg(t, msgs, opFrame, KindRdvNack); nack.hdr.MsgID != 9 || nack.hdr.Offset != nackSend {
		t.Fatalf("NACK %+v, want msg 9 nackSend", nack.hdr)
	}
	if st := e.Stats(); st.RdvRetries > 1 {
		t.Errorf("%d retries: the gone read was re-posted", st.RdvRetries)
	}
}

// TestDriverFramesPassThrough: the Driver face carries raw frames of
// every kind, KindData included, byte-exact from 0 B to 256 KiB — on
// the mem rail and on the TCP rail, whose own read frames never reach
// Poll.
func TestDriverFramesPassThrough(t *testing.T) {
	pairs := map[string]func(*testing.T) (Driver, Driver){
		"mem": func(*testing.T) (Driver, Driver) { return MemPair() },
		"tcp": func(t *testing.T) (Driver, Driver) { return tcpPair(t) },
	}
	for _, name := range []string{"mem", "tcp"} {
		t.Run(name, func(t *testing.T) {
			a, b := pairs[name](t)
			defer a.Close()
			defer b.Close()
			for k := KindEager; k <= KindRdvNack; k++ {
				for _, n := range []int{0, 1, 33, 64 << 10, 256 << 10} {
					payload := make([]byte, n)
					for i := range payload {
						payload[i] = byte(i*3 + int(k))
					}
					hdr := Header{Kind: k, Tag: uint64(n), MsgID: 7, FragIdx: 1, FragCnt: 2, Offset: 3, Total: uint32(n)}
					if err := a.Send(hdr, payload); err != nil {
						t.Fatalf("%v/%d: send: %v", k, n, err)
					}
					deadline := time.Now().Add(5 * time.Second)
					for {
						f, ok, err := b.Poll()
						if err != nil {
							t.Fatalf("%v/%d: poll: %v", k, n, err)
						}
						if ok {
							if f.Hdr != hdr || !bytes.Equal(f.Payload, payload) || len(f.Ext) != 0 {
								t.Fatalf("%v/%d: frame %+v (%d B) arrived altered", k, n, f.Hdr, len(f.Payload))
							}
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("%v/%d: frame never arrived", k, n)
						}
						runtime.Gosched()
					}
				}
			}
		})
	}
}
