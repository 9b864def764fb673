package nmad

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"pioman/internal/fabric"
)

// Driver abstracts one network rail: a point-to-point link to a peer
// engine. Send may block briefly (handing the frame to the wire); Poll
// must never block — it is called from PIOMan polling tasks.
//
// Implementations: MemPair (in-process) and TCP (stdlib net).
type Driver interface {
	// Name identifies the driver kind ("mem", "tcp").
	Name() string
	// Send transmits one frame. The payload is copied or fully written
	// before return; the caller may reuse the buffer.
	Send(hdr Header, payload []byte) error
	// Poll returns the next received frame, if any.
	Poll() (Frame, bool, error)
	// Close shuts the rail down; subsequent Sends fail and Polls report
	// no frames.
	Close() error
}

// ErrClosed is returned when using a closed driver.
var ErrClosed = errors.New("nmad: driver closed")

// ErrBackpressure reports a transient rail-full condition: the send
// failed because the peer's receive ring is full, but the rail itself
// is healthy and later sends may succeed. The gate fails the affected
// request without marking the rail dead.
var ErrBackpressure = errors.New("nmad: rail backpressure")

// ---- In-process memory driver ----

// memDriver is one endpoint of an in-process rail: frames written by the
// peer land in rx. Its RMA face forwards to this side of a fabric
// loopback RMA pair, so region keys, bounds checks and the read itself
// stay fabric's.
type memDriver struct {
	rx     chan Frame
	peer   *memDriver
	closed atomic.Bool
	rma    *fabric.LoopbackEndpoint
	// reads counts RMA reads posted whose completions are not yet
	// polled, so an empty poll is one atomic load and no lock.
	reads atomic.Int32
}

// MemPair returns two connected in-process rails — the loopback
// equivalent of a NIC pair, used by tests, examples and single-process
// benchmarks. NewGate runs them as pull-capable rails; wrapped with
// WrapDriver they stay frame-only.
func MemPair() (Driver, Driver) {
	ra, rb := fabric.NewLoopbackRMA()
	a := &memDriver{rx: make(chan Frame, 4096), rma: ra}
	b := &memDriver{rx: make(chan Frame, 4096), rma: rb}
	a.peer = b
	b.peer = a
	return a, b
}

func (d *memDriver) Name() string { return "mem" }

func (d *memDriver) Send(hdr Header, payload []byte) error {
	return (*memEndpoint)(d).SendFrame(hdr, nil, payload)
}

func (d *memDriver) Poll() (Frame, bool, error) {
	select {
	case f := <-d.rx:
		return f, true, nil
	default:
		if d.closed.Load() {
			return Frame{}, false, ErrClosed
		}
		return Frame{}, false, nil
	}
}

func (d *memDriver) Close() error {
	d.closed.Store(true)
	return d.rma.Close()
}

// memEndpoint is a mem rail's own endpoint, the one NewGate uses: the
// driver's frames, extension included, plus the RMA face. It shares
// the driver's state; only the method set differs.
type memEndpoint memDriver

// Provider names the backend.
func (ep *memEndpoint) Provider() string { return "mem" }

// Capabilities returns the assumed mem envelope plus the RMA bit.
func (ep *memEndpoint) Capabilities() fabric.Capabilities {
	caps := memCaps
	caps.RMA = true
	return caps
}

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
	select {
	case ep.peer.rx <- f:
		return nil
	default:
		return fmt.Errorf("mem rail rx ring full: %w", ErrBackpressure)
	}
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
	}
	return err
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

// Send is the generic face (a calibrated gate): the header is decoded
// and the rest of imm travels as the extension.
func (ep *memEndpoint) Send(imm, payload []byte) error {
	hdr, err := decodeHeader(imm)
	if err != nil {
		return err
	}
	return ep.SendFrame(hdr, imm[headerBytes:], payload)
}

// Poll is the generic face: a read completion, else the next frame as
// an EventRecv.
func (ep *memEndpoint) Poll() (fabric.Event, bool, error) {
	if ev, ok, err := ep.PollRead(); ok || err != nil {
		return ev, ok, err
	}
	f, ok, err := ep.PollFrame()
	if err != nil || !ok {
		return fabric.Event{}, false, err
	}
	imm := make([]byte, headerBytes, headerBytes+len(f.Ext))
	f.Hdr.encode(imm)
	return fabric.Event{Kind: fabric.EventRecv, Imm: append(imm, f.Ext...), Payload: f.Payload, From: -1}, true, nil
}

// Backlog is always zero: sends and reads finish inside the call.
func (ep *memEndpoint) Backlog() int { return 0 }

// Close shuts the rail down.
func (ep *memEndpoint) Close() error { return (*memDriver)(ep).Close() }

// ---- TCP driver ----

// tcpDriver frames nmad packets over a stream connection. A reader
// goroutine (standing in for the NIC's RX DMA engine) deposits frames
// into a ring that Poll drains without blocking.
type tcpDriver struct {
	conn    net.Conn
	wmu     sync.Mutex
	bw      *bufio.Writer
	rx      chan Frame
	readErr atomic.Pointer[error]
	closed  atomic.Bool
}

// NewTCP wraps an established stream connection (TCP socket, Unix
// socket, net.Pipe end) as an nmad rail.
func NewTCP(conn net.Conn) Driver {
	d := &tcpDriver{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64<<10),
		rx:   make(chan Frame, 1024),
	}
	go d.readLoop()
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
	if d.closed.Load() {
		return ErrClosed
	}
	var hbuf [headerBytes + 4]byte
	hdr.encode(hbuf[:headerBytes])
	binary.LittleEndian.PutUint32(hbuf[headerBytes:], uint32(len(payload)))
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if _, err := d.bw.Write(hbuf[:]); err != nil {
		return err
	}
	if _, err := d.bw.Write(payload); err != nil {
		return err
	}
	return d.bw.Flush()
}

func (d *tcpDriver) readLoop() {
	br := bufio.NewReaderSize(d.conn, 64<<10)
	for {
		var hbuf [headerBytes + 4]byte
		if _, err := io.ReadFull(br, hbuf[:]); err != nil {
			d.storeErr(err)
			return
		}
		hdr, err := decodeHeader(hbuf[:headerBytes])
		if err != nil {
			d.storeErr(err)
			return
		}
		plen := binary.LittleEndian.Uint32(hbuf[headerBytes:])
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			d.storeErr(err)
			return
		}
		d.rx <- Frame{Hdr: hdr, Payload: payload}
	}
}

func (d *tcpDriver) storeErr(err error) {
	if d.closed.Load() {
		err = ErrClosed
	}
	d.readErr.Store(&err)
}

func (d *tcpDriver) Poll() (Frame, bool, error) {
	select {
	case f := <-d.rx:
		return f, true, nil
	default:
		// A read error after a local Close is the expected shutdown; any
		// other error — including an abrupt EOF from a vanished peer —
		// must surface so outstanding requests fail instead of hanging.
		if ep := d.readErr.Load(); ep != nil && !errors.Is(*ep, ErrClosed) {
			return Frame{}, false, *ep
		}
		return Frame{}, false, nil
	}
}

func (d *tcpDriver) Close() error {
	if d.closed.CompareAndSwap(false, true) {
		return d.conn.Close()
	}
	return nil
}
