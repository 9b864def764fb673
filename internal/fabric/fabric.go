// Package fabric is the libfabric-shaped provider layer beneath the
// nmad communication engine. It abstracts one network rail the way
// libfabric abstracts a NIC: a Domain is the resource container (the
// opened NIC), an Endpoint is a connected transmit/receive channel
// bound to a completion queue, a MemoryRegion is a registered buffer
// remote peers may read, and Capabilities is the fi_info-style
// envelope — latency, bandwidth, inject limit, RMA support — that a
// multirail scheduler consumes to decide where each message goes.
//
// The paper's NewMadeleine stack is explicitly multi-backend: the
// scheduler is generic and the NIC drivers (Myrinet/MX, IB verbs, TCP)
// plug in underneath, with rail selection driven by sampled per-rail
// latency and bandwidth. This package is that seam. Every provider
// reads: nmad's own mem and TCP rails (frames plus an RMA face — the
// mem rail reads through a loopback RMA pair, the TCP rail serves reads
// from a RegionTable over its socket, as libfabric's tcp/rxm emulates
// RMA), the wall-clock loopback pair in loopback.go, and the RDMA-style
// simulated provider in simrdma.go, which supplies the paper's IB-verbs
// scenario — queue pairs, registered buffers, eager inject vs.
// rendezvous-by-RMA-read — without hardware, with completion latency
// modelled in virtual time via internal/simtime. Future backends (a
// real libfabric binding, a UCX-shaped transport) slot in behind the
// same interfaces.
package fabric

import (
	"errors"
	"fmt"

	"pioman/internal/simtime"
)

// ErrClosed is returned when operating on a closed endpoint or domain.
var ErrClosed = errors.New("fabric: endpoint closed")

// ErrNoRegion is returned when an RMA operation names an unknown or
// deregistered memory region key.
var ErrNoRegion = errors.New("fabric: no such memory region")

// Capabilities describes one rail's performance envelope — the subset
// of libfabric's fi_info the multirail striping policy consumes.
// Latency and Bandwidth are the sampled per-rail constants the paper's
// rail-selection strategy is driven by.
type Capabilities struct {
	// Latency is the one-way message latency of the rail.
	Latency simtime.Duration
	// Bandwidth is the sustained rail bandwidth in bytes per (virtual)
	// second. Zero means unknown; consumers should treat unknown rails
	// as equal-weight.
	Bandwidth float64
	// MaxInject is the largest payload the provider sends inline
	// ("eager inject"): the data is buffered at post time and the send
	// completes immediately. Larger payloads may use a rendezvous
	// protocol internally (the simulated RDMA provider pulls them with
	// an RMA read).
	MaxInject int
	// RMA reports whether the provider supports remote memory access
	// (RegisterMemory on its domain, RMARead on its endpoints).
	RMA bool
}

// NsPerByte returns the inverse bandwidth in nanoseconds per byte, or 0
// when the bandwidth is unknown.
func (c Capabilities) NsPerByte() float64 {
	if c.Bandwidth <= 0 {
		return 0
	}
	return 1e9 / c.Bandwidth
}

// String renders the envelope compactly for stats tables.
func (c Capabilities) String() string {
	return fmt.Sprintf("lat=%v bw=%.2fGB/s inject≤%d rma=%v",
		c.Latency, c.Bandwidth/1e9, c.MaxInject, c.RMA)
}

// EventKind discriminates completion-queue entries.
type EventKind int

// Completion-queue entry kinds.
const (
	// EventRecv signals an inbound message; Imm and Payload carry it.
	EventRecv EventKind = iota
	// EventRMADone signals a locally posted RMARead has delivered all
	// remote data into the local buffer; Context echoes the post's
	// context value.
	EventRMADone
	// EventSendDone signals a previously posted Send has fully left the
	// wire (the verbs-style signaled send completion). Providers post
	// these only when asked to (see SendCompleter); consumers that only
	// care about traffic may ignore them, while calibrators use their
	// timing to sample the rail's real latency and bandwidth.
	EventSendDone
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventRecv:
		return "recv"
	case EventRMADone:
		return "rma-done"
	case EventSendDone:
		return "send-done"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one completion-queue entry popped by Endpoint.Poll.
type Event struct {
	// Kind discriminates the entry.
	Kind EventKind
	// Imm carries the message's immediate (header) bytes (EventRecv).
	Imm []byte
	// Payload carries the message body (EventRecv) or the filled local
	// buffer (EventRMADone).
	Payload []byte
	// From identifies the sending endpoint's domain id (EventRecv on
	// providers that have one; -1 otherwise).
	From int
	// Context echoes the caller-supplied context of the completed
	// operation (EventRMADone).
	Context any
	// Stamp is the completion's timestamp on the provider's own
	// nanosecond clock (virtual time for the simulated provider), or 0
	// when the provider does not timestamp completions. Calibrators
	// prefer it over reading a clock at poll time: it is the exact
	// instant the operation completed, not the instant somebody looked.
	Stamp int64
}

// RKey names a registered memory region for remote access — the
// libfabric/verbs remote key a peer presents to RMARead. Zero is never
// a valid key: providers start numbering at 1, so protocols may use 0
// as an "absent" marker in wire formats (the nmad pull offer does).
type RKey uint64

// MemoryRegion is a registered buffer remote endpoints may read until
// it is closed (deregistered).
type MemoryRegion interface {
	// Key returns the remote key peers present to RMARead.
	Key() RKey
	// Close deregisters the region; subsequent RMA reads of its key
	// fail with ErrNoRegion.
	Close() error
}

// Domain is one opened NIC-like resource container: endpoints and
// memory registrations live inside it, and its capability envelope
// applies to every endpoint opened on it.
type Domain interface {
	// Provider names the backend ("simrdma", "mem", "tcp", ...).
	Provider() string
	// Capabilities returns the domain's performance envelope.
	Capabilities() Capabilities
	// RegisterMemory pins buf for remote access and returns its region
	// handle. Fails on providers whose Capabilities report RMA false.
	RegisterMemory(buf []byte) (MemoryRegion, error)
	// Close releases the domain and every endpoint opened on it.
	Close() error
}

// Endpoint is one connected transmit/receive channel to a single peer,
// bound to a completion queue — libfabric's connected message endpoint.
// Send must not block beyond handing the message to the provider; Poll
// must never block (it is called from PIOMan polling tasks).
type Endpoint interface {
	// Provider names the backend the endpoint belongs to.
	Provider() string
	// Capabilities returns the rail's performance envelope.
	Capabilities() Capabilities
	// Send transmits one message: imm (small header bytes, delivered
	// verbatim) plus payload. Both are owned by the caller again when
	// Send returns — providers buffer or finish the wire write before
	// returning (buffered-send semantics, like nmad's mem and TCP rails).
	Send(imm, payload []byte) error
	// Poll pops the next completion-queue entry, reporting false when
	// the queue is empty. A non-nil error means the rail is dead.
	Poll() (Event, bool, error)
	// Backlog reports the endpoint's current completion-queue depth:
	// operations posted but not yet complete plus completions not yet
	// polled. The striping policy deprioritizes backpressured rails.
	Backlog() int
	// Close shuts the endpoint down; subsequent Sends fail and Polls
	// report ErrClosed.
	Close() error
}

// RMAEndpoint is the optional remote-memory-access face of an
// endpoint, implemented by providers whose Capabilities report RMA: an
// RMA read pulls bytes from a peer's registered region into a local
// buffer without involving the peer's host CPU, completing with an
// EventRMADone on the local completion queue.
type RMAEndpoint interface {
	Endpoint
	// RMARead starts pulling len(local) bytes from the peer region
	// named by key, beginning offset bytes into it, into local — the
	// verbs read of remote address base+offset. ctx is echoed in the
	// completion event. Reads past the region's end fail with
	// ErrNoRegion.
	RMARead(key RKey, offset int, local []byte, ctx any) error
}

// Domained is the optional interface of endpoints that expose the
// Domain they were opened on. Protocols that register user memory for
// remote access (the nmad pull-mode rendezvous registers send buffers
// so the receiver can RMA-read them) discover the registration target
// through it; endpoints of providers without memory registration
// simply do not implement it.
type Domained interface {
	// Domain returns the endpoint's resource domain, or nil when the
	// endpoint is not backed by one.
	Domain() Domain
}

// SendCompleter is the optional interface of providers that post
// EventSendDone completions for their sends. Asynchronous providers (a
// send returns before the wire time has elapsed) implement it so a
// calibrator can attribute completion timing; synchronous providers —
// whose Send returns only after the wire write finished, like the
// loopback rail and nmad's mem and TCP rails — do not, and are
// sampled around the Send call itself.
type SendCompleter interface {
	// SendCompletions reports whether the endpoint currently posts
	// EventSendDone entries.
	SendCompletions() bool
}

// Clocked is the optional interface of providers with their own
// completion clock — the simulated fabric's virtual clock. Calibrators
// read send-post times from it so their arithmetic matches the clock
// the provider stamps completions with; providers without one are
// timed on the wall clock.
type Clocked interface {
	// ProviderClock returns a monotonic nanosecond clock function.
	ProviderClock() func() int64
}
