package nmad

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"pioman/internal/fabric"
	"pioman/internal/simtime"
)

// Driver abstracts one network rail: a point-to-point link to a peer
// engine. Send may block briefly (handing the frame to the wire); Poll
// must never block — it is called from PIOMan polling tasks.
//
// Implementations: MemPair (in-process) and TCP (stdlib net). NewGate
// runs either through its own endpoint (frames plus an RMA face), so
// every rail a gate is built from can serve rendezvous reads; the
// Driver face itself moves raw frames only.
type Driver interface {
	// Name identifies the driver kind ("mem", "tcp").
	Name() string
	// Send transmits one frame. The payload is copied or fully written
	// before return; the caller may reuse the buffer.
	Send(hdr Header, payload []byte) error
	// Poll returns the next received frame, if any.
	Poll() (Frame, bool, error)
	// Close shuts the rail down: later Sends fail, and Polls still drain
	// the frames that had landed.
	Close() error
}

// ErrClosed is returned when using a closed driver.
var ErrClosed = errors.New("nmad: driver closed")

// ErrBackpressure reports a transient rail-full condition: the send
// failed because the peer's receive ring is full, but the rail itself
// is healthy and later sends may succeed. The gate fails the affected
// request without marking the rail dead.
var ErrBackpressure = errors.New("nmad: rail backpressure")

// Assumed capability envelopes of the package's rails. The paper's
// NewMadeleine samples each rail's latency/bandwidth at startup; here
// the envelopes are static per driver kind (Config.Calibrate measures
// them instead), chosen so an in-process rail outranks a TCP rail for
// small messages and the two split large payloads evenly when paired
// with themselves.
var (
	memCaps = fabric.Capabilities{Latency: 200 * simtime.Nanosecond, Bandwidth: 8e9, MaxInject: 16 << 10, RMA: true}
	tcpCaps = fabric.Capabilities{Latency: 30 * simtime.Microsecond, Bandwidth: 1e9, MaxInject: 8 << 10, RMA: true}
)

// frameEndpoint is the package-internal fast path of the package's own
// rails: the gate moves decoded Headers straight through, skipping the
// imm encode/decode round-trip and its allocation (§IV-B
// zero-allocation submission). Other fabric endpoints, and calibrated
// rails, use the generic byte-oriented Send/Poll instead.
type frameEndpoint interface {
	// SendFrame transmits one decoded frame with its imm extension
	// (an RTS pull offer).
	SendFrame(hdr Header, ext, payload []byte) error
	// PollFrame pops the next received frame.
	PollFrame() (Frame, bool, error)
	// PollRead pops the next RMA read completion.
	PollRead() (fabric.Event, bool, error)
}

// sendImm is a frame endpoint's generic Send face (a calibrated gate):
// the header is decoded and the rest of imm travels as the extension.
func sendImm(fe frameEndpoint, imm, payload []byte) error {
	hdr, err := decodeHeader(imm)
	if err != nil {
		return err
	}
	return fe.SendFrame(hdr, imm[headerBytes:], payload)
}

// pollEvent is a frame endpoint's generic Poll face: a read
// completion, else the next frame as an EventRecv.
func pollEvent(fe frameEndpoint) (fabric.Event, bool, error) {
	if ev, ok, err := fe.PollRead(); ok || err != nil {
		return ev, ok, err
	}
	f, ok, err := fe.PollFrame()
	if err != nil || !ok {
		return fabric.Event{}, false, err
	}
	imm := make([]byte, headerBytes, headerBytes+len(f.Ext))
	f.Hdr.encode(imm)
	return fabric.Event{Kind: fabric.EventRecv, Imm: append(imm, f.Ext...), Payload: f.Payload, From: -1}, true, nil
}

// signal tells a rail's poll task, once the rail belongs to a gate, that
// Poll has something (see poller).
func signal(slot *atomic.Pointer[poller]) {
	if p := slot.Load(); p != nil {
		p.signal()
	}
}

// pollSlot returns where one of the package's rail endpoints keeps its
// gate's poll task, nil for any other provider.
func pollSlot(ep fabric.Endpoint) *atomic.Pointer[poller] {
	switch ep := ep.(type) {
	case *memEndpoint:
		return &ep.poll
	case *tcpEndpoint:
		return &ep.poll
	}
	return nil
}

// Receive ring bounds: past its bound the mem rail refuses a frame
// (ErrBackpressure) and the TCP reader waits for a poll to free a slot.
const memRingFrames, tcpRingFrames = 4096, 1024

// frameRing is a rail's bounded receive FIFO, grown on demand by doubling
// from 16 slots up to the bound and reused after that: an idle rail holds
// no slot. n mirrors the length, so an empty pop is one atomic load.
type frameRing struct {
	mu          sync.Mutex
	space       sync.Cond // on mu: a pop from a full ring, or close
	buf         []Frame
	head, bound int
	closed      bool
	n           atomic.Int32
}

func (r *frameRing) init(bound int) { r.bound, r.space.L = bound, &r.mu }

// push appends f. A full ring refuses it, or with wait, is waited on
// until a pop frees a slot; false once closed.
func (r *frameRing) push(f Frame, wait bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.n.Load())
	for ; n == r.bound; n = int(r.n.Load()) {
		if !wait || r.closed {
			return false
		}
		r.space.Wait()
	}
	if n == len(r.buf) {
		buf := make([]Frame, min(max(2*n, 16), r.bound))
		copy(buf[copy(buf, r.buf[r.head:]):], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+n)%len(r.buf)] = f
	r.n.Store(int32(n + 1))
	return true
}

// pop removes the oldest frame.
func (r *frameRing) pop() (f Frame, ok bool) {
	if r.n.Load() == 0 {
		return f, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := int(r.n.Load()); n > 0 {
		f, r.buf[r.head] = r.buf[r.head], Frame{}
		r.head = (r.head + 1) % len(r.buf)
		r.n.Store(int32(n - 1))
		if n == r.bound {
			r.space.Signal()
		}
		ok = true
	}
	return f, ok
}

// close ends every waiting push, present and future.
func (r *frameRing) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.space.Broadcast()
}

// ---- In-process memory driver ----

// memDriver is one endpoint of an in-process rail: frames written by the
// peer land in rx. Its RMA face forwards to this side of a fabric
// loopback RMA pair, so region keys, bounds checks and the read itself
// stay fabric's.
type memDriver struct {
	rx     frameRing
	peer   *memDriver
	closed atomic.Bool
	rma    *fabric.LoopbackEndpoint
	// reads counts RMA reads posted whose completions are not yet
	// polled, so an empty poll is one atomic load and no lock.
	reads atomic.Int32
	// poll is signalled by the peer's SendFrame, a completed read and
	// Close.
	poll atomic.Pointer[poller]
}

// MemPair returns two connected in-process rails — the loopback
// equivalent of a NIC pair, used by tests, examples and single-process
// benchmarks. NewGate runs them as pull-capable rails.
func MemPair() (Driver, Driver) {
	ra, rb := fabric.NewLoopbackRMA()
	a, b := &memDriver{rma: ra}, &memDriver{rma: rb}
	a.peer, b.peer = b, a
	a.rx.init(memRingFrames)
	b.rx.init(memRingFrames)
	return a, b
}

func (d *memDriver) Name() string { return "mem" }

func (d *memDriver) Send(hdr Header, payload []byte) error {
	return (*memEndpoint)(d).SendFrame(hdr, nil, payload)
}

func (d *memDriver) Poll() (Frame, bool, error) {
	if f, ok := d.rx.pop(); ok {
		return f, true, nil
	}
	if d.closed.Load() {
		return Frame{}, false, ErrClosed
	}
	return Frame{}, false, nil
}

func (d *memDriver) Close() error {
	d.closed.Store(true)
	err := d.rma.Close()
	signal(&d.poll)
	return err
}

// memEndpoint is a mem rail's own endpoint, the one NewGate uses: the
// driver's frames, extension included, plus the RMA face. It shares
// the driver's state; only the method set differs.
type memEndpoint memDriver

// Provider names the backend.
func (ep *memEndpoint) Provider() string { return "mem" }

// Capabilities returns the assumed mem envelope.
func (ep *memEndpoint) Capabilities() fabric.Capabilities { return memCaps }

// Domain is the loopback rail's domain, where send buffers register.
func (ep *memEndpoint) Domain() fabric.Domain { return ep.rma.Domain() }

// SendFrame hands one frame to the peer's ring.
func (ep *memEndpoint) SendFrame(hdr Header, ext, payload []byte) error {
	if ep.closed.Load() || ep.peer.closed.Load() {
		return ErrClosed
	}
	// Copy the payload and extension: the wire owns its bytes, like a
	// real DMA.
	f := Frame{Hdr: hdr, Payload: make([]byte, len(payload))}
	copy(f.Payload, payload)
	if len(ext) > 0 {
		f.Ext = append([]byte(nil), ext...)
	}
	if !ep.peer.rx.push(f, false) {
		return fmt.Errorf("mem rail rx ring full: %w", ErrBackpressure)
	}
	signal(&ep.peer.poll)
	return nil
}

// PollFrame pops the next received frame.
func (ep *memEndpoint) PollFrame() (Frame, bool, error) { return (*memDriver)(ep).Poll() }

// RMARead reads a peer region through the loopback rail, counting the
// read until its completion is polled.
func (ep *memEndpoint) RMARead(key fabric.RKey, offset int, local []byte, ctx any) error {
	ep.reads.Add(1)
	err := ep.rma.RMARead(key, offset, local, ctx)
	if err != nil {
		ep.reads.Add(-1)
		return err
	}
	signal(&ep.poll)
	return nil
}

// PollRead pops the next read completion.
func (ep *memEndpoint) PollRead() (fabric.Event, bool, error) {
	if ep.reads.Load() == 0 {
		return fabric.Event{}, false, nil
	}
	ev, ok, err := ep.rma.Poll()
	if ok {
		ep.reads.Add(-1)
	}
	return ev, ok, err
}

// Send is the generic face: see sendImm.
func (ep *memEndpoint) Send(imm, payload []byte) error { return sendImm(ep, imm, payload) }

// Poll is the generic face: see pollEvent.
func (ep *memEndpoint) Poll() (fabric.Event, bool, error) { return pollEvent(ep) }

// Backlog is always zero: sends and reads finish inside the call.
func (ep *memEndpoint) Backlog() int { return 0 }

// Close shuts the rail down.
func (ep *memEndpoint) Close() error { return (*memDriver)(ep).Close() }

// ---- TCP driver ----

// TCP rail wire format. Every message opens with one op byte:
//
//	opFrame     op | header | u32 ext len | u32 payload len | ext | payload
//	opReadReq   op | u64 read id | u64 key | u32 offset | u32 len
//	opReadResp  op | u64 read id | u32 len | the region's bytes
//
// Read requests and responses belong to the rail: they never reach
// Poll, and no nmad task or state serves them. A response whose length
// is respGone carries no bytes: the region is no longer registered.
const (
	opFrame byte = iota
	opReadReq
	opReadResp
)

const (
	frameHdrBytes = 1 + headerBytes + 4 + 4
	readReqBytes  = 1 + 8 + 8 + 4 + 4
	readRespBytes = 1 + 8 + 4
	respGone      = ^uint32(0)
)

// States of a posted TCP read.
const (
	readPosted  uint8 = iota // request sent, no answer yet
	readLanding              // the answer's bytes are landing in local
	readLanded               // landed; completion not yet polled
	readGone                 // answered: the region is no longer registered
	readDropped              // its receive was abandoned: discard the answer
)

// tcpDriver frames nmad packets over a stream connection. A reader
// goroutine (standing in for the NIC's RX DMA engine) deposits frames
// into a ring that Poll drains without blocking, lands read responses
// straight in their posted buffers, and queues the peer's read
// requests for a server goroutine — the NIC's RMA engine — which
// answers each from the registered bytes with one vectored write. The
// reader never writes: two peers serving large reads to each other at
// once would otherwise each stop reading while blocked on the other.
type tcpDriver struct {
	conn    net.Conn
	wmu     sync.Mutex
	bw      *bufio.Writer
	rx      frameRing
	done    chan struct{} // closed by Close: wakes the server
	wg      sync.WaitGroup
	readErr atomic.Pointer[error]
	closed  atomic.Bool

	// regions are the send buffers this side serves reads from.
	regions fabric.RegionTable
	// ready counts landed reads whose completion is not yet polled, so
	// an empty PollRead is one atomic load and no lock.
	ready atomic.Int32
	// poll is signalled by the reader for each frame and landed read,
	// and when the connection breaks.
	poll atomic.Pointer[poller]

	// rmu guards the posted reads and the serve queue; landed signals
	// (on rmu) each read that stops landing.
	rmu      sync.Mutex
	landed   sync.Cond
	nextRead uint64
	posted   []tcpRead     // in post order, until polled, gone or discarded
	serveQ   []tcpReadReq  // peer reads queued or being answered
	kick     chan struct{} // wakes the server; one pending wake-up suffices
}

// tcpRead is one posted read.
type tcpRead struct {
	id    uint64
	local []byte
	ctx   any
	state uint8
}

// tcpReadReq is one read request from the peer.
type tcpReadReq struct {
	id     uint64
	key    fabric.RKey
	off, n uint32
}

// NewTCP wraps an established stream connection (TCP socket, Unix
// socket, net.Pipe end) as an nmad rail.
func NewTCP(conn net.Conn) Driver {
	d := &tcpDriver{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64<<10),
		done: make(chan struct{}),
		kick: make(chan struct{}, 1),
	}
	d.landed.L = &d.rmu
	d.rx.init(tcpRingFrames)
	d.wg.Add(2)
	go d.readLoop()
	go d.serveLoop()
	return d
}

// DialTCP connects to a listening peer.
func DialTCP(addr string) (Driver, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewTCP(conn), nil
}

// AcceptTCP accepts one rail from a listener.
func AcceptTCP(ln net.Listener) (Driver, error) {
	conn, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	return NewTCP(conn), nil
}

func (d *tcpDriver) Name() string { return "tcp" }

func (d *tcpDriver) Send(hdr Header, payload []byte) error {
	return (*tcpEndpoint)(d).SendFrame(hdr, nil, payload)
}

// write puts one message on the wire under the write lock.
func (d *tcpDriver) write(prefix, ext, payload []byte) error {
	if d.closed.Load() {
		return ErrClosed
	}
	d.wmu.Lock()
	defer d.wmu.Unlock()
	for _, b := range [][]byte{prefix, ext, payload} {
		if _, err := d.bw.Write(b); err != nil {
			return err
		}
	}
	return d.bw.Flush()
}

func (d *tcpDriver) readLoop() {
	defer d.wg.Done()
	br := bufio.NewReaderSize(d.conn, 64<<10)
	var buf [frameHdrBytes]byte
	for {
		if err := d.readOne(br, buf[:]); err != nil {
			d.storeErr(err)
			return
		}
	}
}

// readOne reads and dispatches one message.
func (d *tcpDriver) readOne(br *bufio.Reader, buf []byte) error {
	op, err := br.ReadByte()
	if err != nil {
		return err
	}
	switch op {
	case opFrame:
		b := buf[1:frameHdrBytes]
		if _, err := io.ReadFull(br, b); err != nil {
			return err
		}
		hdr, err := decodeHeader(b)
		if err != nil {
			return err
		}
		elen := binary.LittleEndian.Uint32(b[headerBytes:])
		plen := binary.LittleEndian.Uint32(b[headerBytes+4:])
		body := make([]byte, int(elen)+int(plen))
		if _, err := io.ReadFull(br, body); err != nil {
			return err
		}
		f := Frame{Hdr: hdr, Payload: body[elen:]}
		if elen > 0 {
			f.Ext = body[:elen:elen]
		}
		if !d.rx.push(f, true) {
			return ErrClosed
		}
		signal(&d.poll)
		return nil
	case opReadReq:
		b := buf[1:readReqBytes]
		if _, err := io.ReadFull(br, b); err != nil {
			return err
		}
		r := tcpReadReq{binary.LittleEndian.Uint64(b), fabric.RKey(binary.LittleEndian.Uint64(b[8:])),
			binary.LittleEndian.Uint32(b[16:]), binary.LittleEndian.Uint32(b[20:])}
		d.rmu.Lock()
		d.serveQ = append(d.serveQ, r)
		d.rmu.Unlock()
		select {
		case d.kick <- struct{}{}:
		default: // a wake-up is already pending
		}
		return nil
	case opReadResp:
		b := buf[1:readRespBytes]
		if _, err := io.ReadFull(br, b); err != nil {
			return err
		}
		return d.land(br, binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint32(b[8:]))
	default:
		return fmt.Errorf("nmad: tcp rail: unknown op %d", op)
	}
}

// land reads one read response's bytes straight into the posted buffer
// and marks the read landed. The answer to a dropped read is read and
// discarded; a missing-region answer marks the read gone, and the next
// re-post of it fails with fabric.ErrNoRegion.
func (d *tcpDriver) land(br *bufio.Reader, id uint64, n uint32) error {
	d.rmu.Lock()
	i := d.findRead(id)
	if i < 0 {
		d.rmu.Unlock()
		return fmt.Errorf("nmad: tcp rail: response to unknown read %d", id)
	}
	r := &d.posted[i]
	switch {
	case r.state == readDropped:
		d.posted = slices.Delete(d.posted, i, i+1)
		d.rmu.Unlock()
		if n == respGone {
			return nil
		}
		_, err := br.Discard(int(n))
		return err
	case n == respGone:
		r.state = readGone
		d.rmu.Unlock()
		return nil
	case int(n) != len(r.local):
		d.rmu.Unlock()
		return fmt.Errorf("nmad: tcp rail: read %d answered %d bytes, want %d", id, n, len(r.local))
	}
	// While landing, the read cannot be polled, re-posted or dropped:
	// drop waits for it, so no byte lands after its receive gave up.
	r.state = readLanding
	local := r.local
	d.rmu.Unlock()
	_, err := io.ReadFull(br, local)
	d.rmu.Lock()
	r = &d.posted[d.findRead(id)]
	if err != nil {
		r.state = readPosted // the connection is gone; nothing lands any more
	} else {
		r.state = readLanded
		d.ready.Add(1)
	}
	d.landed.Broadcast()
	d.rmu.Unlock()
	if err == nil {
		signal(&d.poll)
	}
	return err
}

// findRead returns the index of posted read id, or -1. Caller holds rmu.
func (d *tcpDriver) findRead(id uint64) int {
	return slices.IndexFunc(d.posted, func(r tcpRead) bool { return r.id == id })
}

// findCtx returns the index of the live (not dropped) read posted with
// ctx, or -1. Caller holds rmu.
func (d *tcpDriver) findCtx(ctx any) int {
	return slices.IndexFunc(d.posted, func(r tcpRead) bool { return r.ctx == ctx && r.state != readDropped })
}

// serveLoop answers the peer's read requests in arrival order; a
// request stays queued until answered, so serving sees it. It owns no
// nmad state; a failed write ends it, and the reader reports the broken
// connection too.
func (d *tcpDriver) serveLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.kick:
		case <-d.done:
			return
		}
		d.rmu.Lock()
		for len(d.serveQ) > 0 {
			r := d.serveQ[0]
			d.rmu.Unlock()
			if err := d.serve(r); err != nil {
				d.storeErr(err)
				return
			}
			d.rmu.Lock()
			d.serveQ = slices.Delete(d.serveQ, 0, 1)
		}
		d.rmu.Unlock()
	}
}

// serve answers one read request with one vectored write: the response
// header, then the registered bytes themselves.
func (d *tcpDriver) serve(r tcpReadReq) error {
	var hdr [readRespBytes]byte
	hdr[0] = opReadResp
	binary.LittleEndian.PutUint64(hdr[1:], r.id)
	src, err := d.regions.Slice(r.key, int(r.off), int(r.n))
	n := r.n
	if err != nil {
		n = respGone
	}
	binary.LittleEndian.PutUint32(hdr[9:], n)
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if err := d.bw.Flush(); err != nil {
		return err
	}
	bufs := net.Buffers{hdr[:], src}
	_, err = bufs.WriteTo(d.conn)
	return err
}

func (d *tcpDriver) storeErr(err error) {
	if d.closed.Load() {
		err = ErrClosed
	}
	d.readErr.CompareAndSwap(nil, &err)
	signal(&d.poll)
}

func (d *tcpDriver) Poll() (Frame, bool, error) {
	if f, ok := d.rx.pop(); ok {
		return f, true, nil
	}
	// A read error after a local Close is the expected shutdown; any
	// other error — including an abrupt EOF from a vanished peer — must
	// surface so outstanding requests fail instead of hanging.
	if ep := d.readErr.Load(); ep != nil && !errors.Is(*ep, ErrClosed) {
		return Frame{}, false, *ep
	}
	return Frame{}, false, nil
}

// Close shuts the connection and waits for the reader and server
// goroutines to exit, so no read lands in a posted buffer afterwards.
func (d *tcpDriver) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(d.done)
	d.rx.close()
	err := d.conn.Close()
	d.wg.Wait()
	return err
}

// tcpEndpoint is a TCP rail's own endpoint, the one NewGate uses:
// frames with their extension, plus the emulated RMA face. It is its
// own Domain: send buffers register in the rail's region table. It
// shares the driver's state; only the method set differs.
type tcpEndpoint tcpDriver

// Provider names the backend.
func (ep *tcpEndpoint) Provider() string { return "tcp" }

// Capabilities returns the assumed TCP envelope.
func (ep *tcpEndpoint) Capabilities() fabric.Capabilities { return tcpCaps }

// Domain returns the endpoint itself.
func (ep *tcpEndpoint) Domain() fabric.Domain { return ep }

// RegisterMemory adds buf to the regions the peer may read.
func (ep *tcpEndpoint) RegisterMemory(buf []byte) (fabric.MemoryRegion, error) {
	if ep.closed.Load() {
		return nil, ErrClosed
	}
	return ep.regions.Register(buf), nil
}

// SendFrame writes one frame.
func (ep *tcpEndpoint) SendFrame(hdr Header, ext, payload []byte) error {
	var b [frameHdrBytes]byte
	b[0] = opFrame
	hdr.encode(b[1:])
	binary.LittleEndian.PutUint32(b[1+headerBytes:], uint32(len(ext)))
	binary.LittleEndian.PutUint32(b[1+headerBytes+4:], uint32(len(payload)))
	return (*tcpDriver)(ep).write(b[:], ext, payload)
}

// PollFrame pops the next received frame.
func (ep *tcpEndpoint) PollFrame() (Frame, bool, error) { return (*tcpDriver)(ep).Poll() }

// RMARead asks the peer for len(local) bytes of region key at offset;
// the reader goroutine lands them in local and the completion is
// polled through PollRead. TCP cannot lose a read while the connection
// lives, so re-posting a read (same ctx) that is still outstanding is a
// no-op: a second answer could otherwise land after the first completed
// its receive. Re-posting one the peer answered with a missing region
// fails with fabric.ErrNoRegion, as on a provider that checks keys at
// post time. A request that fails to go out leaves its read posted:
// the connection, and the rail with it, is broken.
func (ep *tcpEndpoint) RMARead(key fabric.RKey, offset int, local []byte, ctx any) error {
	d := (*tcpDriver)(ep)
	d.rmu.Lock()
	if i := d.findCtx(ctx); i >= 0 {
		var err error
		if d.posted[i].state == readGone {
			d.posted = slices.Delete(d.posted, i, i+1)
			err = fabric.ErrNoRegion
		}
		d.rmu.Unlock()
		return err
	}
	d.nextRead++
	id := d.nextRead
	d.posted = append(d.posted, tcpRead{id: id, local: local, ctx: ctx})
	d.rmu.Unlock()
	var b [readReqBytes]byte
	b[0] = opReadReq
	binary.LittleEndian.PutUint64(b[1:], id)
	binary.LittleEndian.PutUint64(b[9:], uint64(key))
	binary.LittleEndian.PutUint32(b[17:], uint32(offset))
	binary.LittleEndian.PutUint32(b[21:], uint32(len(local)))
	return d.write(b[:], nil, nil)
}

// inFlight reports whether the read posted with ctx will still complete:
// it is outstanding or landed on a live connection, and was not
// answered with a missing region.
func (ep *tcpEndpoint) inFlight(ctx any) bool {
	d := (*tcpDriver)(ep)
	if d.closed.Load() || d.readErr.Load() != nil {
		return false
	}
	d.rmu.Lock()
	defer d.rmu.Unlock()
	i := d.findCtx(ctx)
	return i >= 0 && d.posted[i].state != readGone
}

// serving reports whether a peer read of region key is queued or being
// answered.
func (ep *tcpEndpoint) serving(key fabric.RKey) bool {
	d := (*tcpDriver)(ep)
	d.rmu.Lock()
	defer d.rmu.Unlock()
	return slices.ContainsFunc(d.serveQ, func(r tcpReadReq) bool { return r.key == key })
}

// drop abandons the read posted with ctx: its receive failed and the
// caller is about to hand the buffer back. A landing answer is waited
// for, a landed one is never polled, and one still to come is read and
// discarded instead of landing. The wait may hold the caller's engine
// locks: it lasts one answer already on the wire at most, because the
// reader takes no engine lock and a broken connection ends the landing.
func (ep *tcpEndpoint) drop(ctx any) {
	d := (*tcpDriver)(ep)
	d.rmu.Lock()
	defer d.rmu.Unlock()
	i := d.findCtx(ctx)
	for i >= 0 && d.posted[i].state == readLanding {
		d.landed.Wait()
		i = d.findCtx(ctx)
	}
	switch {
	case i < 0:
	case d.posted[i].state == readPosted:
		d.posted[i].state = readDropped
	default: // landed or gone: nothing more touches local
		if d.posted[i].state == readLanded {
			d.ready.Add(-1)
		}
		d.posted = slices.Delete(d.posted, i, i+1)
	}
}

// PollRead pops the oldest landed read as an EventRMADone.
func (ep *tcpEndpoint) PollRead() (fabric.Event, bool, error) {
	d := (*tcpDriver)(ep)
	if d.ready.Load() == 0 {
		return fabric.Event{}, false, nil
	}
	d.rmu.Lock()
	defer d.rmu.Unlock()
	for i, r := range d.posted {
		if r.state == readLanded {
			d.posted = slices.Delete(d.posted, i, i+1)
			d.ready.Add(-1)
			return fabric.Event{Kind: fabric.EventRMADone, Payload: r.local, From: -1, Context: r.ctx}, true, nil
		}
	}
	return fabric.Event{}, false, nil
}

// Send is the generic face: see sendImm.
func (ep *tcpEndpoint) Send(imm, payload []byte) error { return sendImm(ep, imm, payload) }

// Poll is the generic face: see pollEvent.
func (ep *tcpEndpoint) Poll() (fabric.Event, bool, error) { return pollEvent(ep) }

// Backlog reports the landed reads whose completions are not yet
// polled.
func (ep *tcpEndpoint) Backlog() int { return int(ep.ready.Load()) }

// Close shuts the rail down.
func (ep *tcpEndpoint) Close() error { return (*tcpDriver)(ep).Close() }
