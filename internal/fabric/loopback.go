package fabric

import "sync"

// Loopback is the minimal wall-clock provider: two endpoints wired
// back to back inside the process, with no simulated clock and no
// modelled costs — a Send is one lock acquisition plus one copy of the
// bytes into the peer's completion queue, and that real, measurable
// work is the whole point. Calibration and striping benchmarks run
// against it to exercise the adaptive layers on genuine elapsed time
// (the ROADMAP "loopback-perf provider" item); its Capabilities are
// deliberately all-zero, because whatever this rail can do is exactly
// what a calibrator should discover.
//
// The provider is synchronous: Send finishes the "wire" write before
// returning (like nmad's mem and TCP rails), so it posts no
// EventSendDone — a Calibrator samples it around the Send call.
//
// Buffer ownership: delivered Payload slices are owned by the consumer
// (each Send copies its payload into a fresh buffer), but Imm slices
// point into per-endpoint scratch storage that is recycled after
// loopScratch further Polls of the same endpoint. Consumers must
// decode immediate bytes before polling again in earnest — which
// every real completion-queue consumer does anyway — and must not
// stash them. In exchange, control frames (empty payload, small imm)
// travel the rail without allocating, which is what lets the
// steady-state pull-mode rendezvous hit zero allocations per message.

// loopImmMax is the largest immediate-byte block embedded inline in a
// completion-queue slot; larger imms fall back to an allocated copy.
const loopImmMax = 128

// loopScratch is how many polled events' immediate bytes stay valid
// concurrently per endpoint (the scratch rotation depth).
const loopScratch = 8

// loopEvent is one in-queue completion: Event fields plus the inline
// immediate-byte block.
type loopEvent struct {
	kind    EventKind
	immLen  int
	imm     [loopImmMax]byte
	bigImm  []byte // imm overflow (> loopImmMax); nil otherwise
	payload []byte
	ctx     any
}

// loopbackPair is the shared state of two connected endpoints: one
// lock covering both directions, matching the provider's scale (an
// in-process rail has no per-direction parallelism to preserve), plus
// the pair's registered-memory table, used when the rail was built RMA.
type loopbackPair struct {
	mu      sync.Mutex
	rma     bool
	regions RegionTable
}

// RegionTable is a registered-memory table: the regions one side of a
// rail serves RMA reads from, by key. The loopback RMA pair keeps its
// regions in one, and so does a provider that emulates RMA in software
// by answering read requests from registered bytes. The zero value is
// empty and ready; all methods are safe for concurrent use.
type RegionTable struct {
	mu      sync.Mutex
	nextKey RKey
	regions map[RKey][]byte
}

// Register adds buf to the table and returns its region handle.
func (t *RegionTable) Register(buf []byte) MemoryRegion {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.regions == nil {
		t.regions = make(map[RKey][]byte)
	}
	t.nextKey++
	t.regions[t.nextKey] = buf
	return &tableRegion{t: t, key: t.nextKey}
}

// Slice returns the n registered bytes at offset off of region key:
// the registered memory itself, not a copy. ErrNoRegion reports an
// unknown key or a range past the region's end.
func (t *RegionTable) Slice(key RKey, off, n int) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	src, ok := t.regions[key]
	if !ok || off < 0 || n < 0 || off+n > len(src) {
		return nil, ErrNoRegion
	}
	return src[off : off+n], nil
}

// count reports how many regions are registered — the leak check.
func (t *RegionTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.regions)
}

// tableRegion is one registered buffer of a RegionTable.
type tableRegion struct {
	t   *RegionTable
	key RKey
}

// Key returns the remote key peers present to RMARead.
func (m *tableRegion) Key() RKey { return m.key }

// Close deregisters the region.
func (m *tableRegion) Close() error {
	m.t.mu.Lock()
	defer m.t.mu.Unlock()
	delete(m.t.regions, m.key)
	return nil
}

// LoopbackEndpoint is one side of an in-process wall-clock rail. It
// implements Endpoint (and RMAEndpoint when built by NewLoopbackRMA);
// all methods are safe for concurrent use.
type LoopbackEndpoint struct {
	pair    *loopbackPair
	peer    *LoopbackEndpoint
	dom     *LoopbackDomain
	cq      []loopEvent
	cqHead  int
	scratch [loopScratch][loopImmMax]byte
	scrNext int
	closed  bool
	sends   uint64
	polls   uint64
}

// NewLoopback creates a connected endpoint pair.
func NewLoopback() (*LoopbackEndpoint, *LoopbackEndpoint) {
	p := &loopbackPair{}
	a := &LoopbackEndpoint{pair: p}
	b := &LoopbackEndpoint{pair: p}
	a.peer, b.peer = b, a
	a.dom = &LoopbackDomain{ep: a}
	b.dom = &LoopbackDomain{ep: b}
	return a, b
}

// NewLoopbackRMA creates a connected endpoint pair whose domains
// support memory registration and whose endpoints support RMARead —
// the loopback face of a zero-copy rail. An RMA read is a synchronous
// memcpy from the registered source straight into the caller's buffer
// (the in-process stand-in for NIC DMA), completing with an
// EventRMADone on the reader's queue. Capabilities stay all-unknown
// except the structural RMA bit.
func NewLoopbackRMA() (*LoopbackEndpoint, *LoopbackEndpoint) {
	a, b := NewLoopback()
	a.pair.rma = true
	return a, b
}

// Provider names the backend.
func (ep *LoopbackEndpoint) Provider() string { return "loopback" }

// Capabilities returns the all-unknown envelope: the loopback rail
// reports nothing about itself, so consumers either treat it as
// equal-weight (the Capabilities contract for unknown rails) or wrap
// it in a Calibrator and measure. Only the structural RMA bit is set,
// and only on pairs built by NewLoopbackRMA.
func (ep *LoopbackEndpoint) Capabilities() Capabilities {
	return Capabilities{RMA: ep.pair.rma}
}

// Domain returns the endpoint's resource domain (for memory
// registration), implementing the optional Domained interface.
func (ep *LoopbackEndpoint) Domain() Domain { return ep.dom }

// push appends one completion to the endpoint's queue, reusing the
// queue's storage once the previous burst has fully drained.
func (ep *LoopbackEndpoint) push(ev loopEvent) {
	if ep.cqHead > 0 && ep.cqHead == len(ep.cq) {
		ep.cq = ep.cq[:0]
		ep.cqHead = 0
	}
	ep.cq = append(ep.cq, ev)
}

// Send copies imm and payload into the peer's completion queue. The
// copy happens inside the call — buffered-send semantics, and the
// elapsed wall time is the rail's real serialization cost. Immediate
// bytes up to loopImmMax are embedded in the queue slot, so a
// control frame (empty payload) allocates nothing.
func (ep *LoopbackEndpoint) Send(imm, payload []byte) error {
	p := ep.pair
	p.mu.Lock()
	defer p.mu.Unlock()
	if ep.closed || ep.peer.closed {
		return ErrClosed
	}
	ep.sends++
	ev := loopEvent{kind: EventRecv, immLen: len(imm)}
	if len(imm) <= loopImmMax {
		copy(ev.imm[:], imm)
	} else {
		ev.bigImm = append([]byte(nil), imm...)
	}
	if len(payload) > 0 {
		ev.payload = append([]byte(nil), payload...)
	}
	ep.peer.push(ev)
	return nil
}

// RMARead pulls len(local) bytes from the pair's region named by key,
// starting offset bytes in, straight into local — a synchronous memcpy
// standing in for NIC DMA — and queues an EventRMADone carrying ctx on
// this endpoint.
func (ep *LoopbackEndpoint) RMARead(key RKey, offset int, local []byte, ctx any) error {
	p := ep.pair
	p.mu.Lock()
	defer p.mu.Unlock()
	if ep.closed || ep.peer.closed {
		return ErrClosed
	}
	src, err := p.regions.Slice(key, offset, len(local))
	if err != nil {
		return err
	}
	n := copy(local, src)
	ep.push(loopEvent{kind: EventRMADone, payload: local[:n], ctx: ctx})
	return nil
}

// Poll pops the next completion-queue entry. The returned Imm slice
// lives in rotating per-endpoint scratch storage — see the package
// ownership note above.
func (ep *LoopbackEndpoint) Poll() (Event, bool, error) {
	p := ep.pair
	p.mu.Lock()
	defer p.mu.Unlock()
	if ep.closed {
		return Event{}, false, ErrClosed
	}
	ep.polls++
	if ep.cqHead == len(ep.cq) {
		return Event{}, false, nil
	}
	le := &ep.cq[ep.cqHead]
	ev := Event{Kind: le.kind, Payload: le.payload, From: -1, Context: le.ctx}
	switch {
	case le.bigImm != nil:
		ev.Imm = le.bigImm
	case le.immLen > 0:
		scr := &ep.scratch[ep.scrNext]
		ep.scrNext = (ep.scrNext + 1) % loopScratch
		copy(scr[:le.immLen], le.imm[:le.immLen])
		ev.Imm = scr[:le.immLen]
	}
	*le = loopEvent{}
	ep.cqHead++
	return ev, true, nil
}

// Backlog reports completions not yet polled.
func (ep *LoopbackEndpoint) Backlog() int {
	p := ep.pair
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(ep.cq) - ep.cqHead
}

// Close shuts the endpoint down; undelivered events are dropped.
func (ep *LoopbackEndpoint) Close() error {
	p := ep.pair
	p.mu.Lock()
	defer p.mu.Unlock()
	ep.closed = true
	ep.cq = nil
	ep.cqHead = 0
	return nil
}

// Stats returns (sends, polls) for the endpoint.
func (ep *LoopbackEndpoint) Stats() (sends, polls uint64) {
	p := ep.pair
	p.mu.Lock()
	defer p.mu.Unlock()
	return ep.sends, ep.polls
}

// LoopbackDomain is the trivial resource domain of one loopback
// endpoint. It implements Domain; memory registration works only on
// pairs built by NewLoopbackRMA.
type LoopbackDomain struct {
	ep *LoopbackEndpoint
}

// Provider names the backend.
func (d *LoopbackDomain) Provider() string { return "loopback" }

// Capabilities returns the endpoint's envelope.
func (d *LoopbackDomain) Capabilities() Capabilities { return d.ep.Capabilities() }

// RegisterMemory pins buf in the pair's region table. Fails on pairs
// built without RMA.
func (d *LoopbackDomain) RegisterMemory(buf []byte) (MemoryRegion, error) {
	p := d.ep.pair
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.rma {
		return nil, ErrNoRegion
	}
	if d.ep.closed {
		return nil, ErrClosed
	}
	return p.regions.Register(buf), nil
}

// Close closes the domain's endpoint.
func (d *LoopbackDomain) Close() error { return d.ep.Close() }

// Regions reports how many regions are currently registered on the
// pair — the loopback leak check.
func (ep *LoopbackEndpoint) Regions() int {
	return ep.pair.regions.count()
}
