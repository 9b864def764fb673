// Package trace is the engine flight recorder: a fixed-size,
// lock-free, per-ring buffer of scheduling and protocol events that is
// cheap enough to leave compiled into the hot paths and free when not
// attached (every hook is a single nil pointer check).
//
// The recorder is deliberately a leaf package — it imports only the
// standard library — so that core, nmad, and cluster can all hold a
// *Recorder without creating an import cycle with the observability
// server (internal/obs) that drains it.
//
// Writers publish with a seqlock-style per-slot sequence: a slot's
// sequence is zeroed while its fields are being written and set to
// position+1 once the event is complete, so a concurrent drain can
// detect and skip torn slots instead of blocking writers. Under
// extreme wraparound races (two writers a full lap apart landing on
// the same slot) a drained event may mix fields from both; the
// recorder is a diagnostic surface, not a ledger, and trades that
// vanishing window for zero locks on the record path.
//
// # Spans
//
// Beyond instant events, the recorder carries message-lifecycle spans:
// begin/end kind pairs whose A payload is a SpanID — a packed
// (node, peer, direction, aux, msgID) identity that is stable across
// engines, so the sender's and receiver's halves of one message
// correlate in a merged drain. Span events are ordinary ring entries
// (same cost, same wraparound), and WriteTrace renders them as
// chrome://tracing async "b"/"e" pairs so Perfetto draws message
// lifetimes as bars. Reconstruction and phase attribution live in
// trace/analyze.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Kind identifies the engine event a slot records.
type Kind uint32

// Event kinds. The A/B payload meaning depends on the kind; see each
// constant's comment. Rings are sharded by origin: core records under
// the executing CPU index, nmad under the gate id.
//
// Span kinds (EvSendBegin onward) come in begin/end pairs; their A
// payload is always a SpanID so both halves of a pair — and the
// sender- and receiver-side spans of one message — correlate in a
// merged drain.
const (
	// EvTaskRun is a task dispatch on a CPU: A = the task's cumulative
	// run count, B = queue wait in clock units (submit→dispatch) when
	// the engine stamps submit times, else 0.
	EvTaskRun Kind = iota
	// EvTaskSteal is a successful steal: A = victim CPU, B = tasks
	// migrated in the drain.
	EvTaskSteal
	// EvRdvRTS is an inbound rendezvous request-to-send: A = span id,
	// B = total message bytes.
	EvRdvRTS
	// EvRdvFin is an inbound rendezvous completion: A = span id,
	// B unused.
	EvRdvFin
	// EvRetransmit is a rendezvous control retransmission after a
	// timeout: A = span id, B = retry ordinal.
	EvRetransmit
	// EvEagerRetry is an eager frame retransmission: A = span id,
	// B = retry ordinal.
	EvEagerRetry
	// EvTimeout is a transfer failed permanently after exhausting
	// retries: A = span id, B = path (0 rendezvous send, 1 rendezvous
	// receive, 2 eager).
	EvTimeout
	// EvRailDeath is a rail marked dead: A = rail index, B = live
	// rails remaining on the gate.
	EvRailDeath
	// EvShed is a submission refused by admission control: A = payload
	// bytes, B = reason (0 budget reject, 1 degraded-mode shed, 2 wait
	// queue full, 3 blocked wait expired).
	EvShed
	// EvDegrade is an admission scope crossing a watermark: A = 1
	// entering degraded mode, 0 recovering; B = in-flight payload
	// bytes at the transition.
	EvDegrade

	// EvSendBegin opens a sender-side whole-message span at Isend:
	// A = span id, B = message bytes.
	EvSendBegin
	// EvSendEnd closes the sender-side whole-message span at request
	// completion: A = span id, B = 0 on success, 1 on error.
	EvSendEnd
	// EvRecvBegin opens a receiver-side whole-message span. It is
	// recorded at match time but stamped with the Irecv post
	// timestamp (RecordAt), because the message id is unknown until
	// the first frame matches: A = span id, B = message bytes.
	EvRecvBegin
	// EvRecvEnd closes the receiver-side whole-message span at request
	// completion: A = span id, B = 0 on success, 1 on error.
	EvRecvEnd
	// EvMatchBegin opens the receiver's match-wait phase (Irecv post →
	// first matching frame). Like EvRecvBegin it is recorded at match
	// time with the post timestamp: A = span id, B = 0.
	EvMatchBegin
	// EvMatchEnd closes the match-wait phase at match time: A = span
	// id, B = 0.
	EvMatchEnd
	// EvHandshakeBegin opens the rendezvous handshake phase. Sender
	// side: RTS sent → FIN received (the span covers the whole
	// receiver-driven transfer): A = span id, B = message bytes.
	EvHandshakeBegin
	// EvHandshakeEnd closes the handshake phase: A = span id, B = 0 on
	// success, 1 on error.
	EvHandshakeEnd
	// EvTransferBegin opens the receiver's data-movement phase (match →
	// every byte read): A = span id, B = bytes moved in the phase.
	EvTransferBegin
	// EvTransferEnd closes the data-movement phase: A = span id,
	// B = 0 on success, 1 on error.
	EvTransferEnd
	// EvChunkBegin opens one chunk of a striped transfer; the span
	// id's aux field is the chunk ordinal: A = span id, B = chunk
	// bytes.
	EvChunkBegin
	// EvChunkEnd closes one chunk: A = span id, B = 0 on success, 1 on
	// error.
	EvChunkEnd
	// EvInjectBegin opens the eager injection phase (Isend → frame on
	// the wire): A = span id, B = message bytes.
	EvInjectBegin
	// EvInjectEnd closes the injection phase: A = span id, B = 0 on
	// success, 1 on error.
	EvInjectEnd
	// EvAckWaitBegin opens the eager ack-wait phase (frame on the wire
	// → ack received): A = span id, B = 0.
	EvAckWaitBegin
	// EvAckWaitEnd closes the ack-wait phase: A = span id, B = 0 on
	// success, 1 on error.
	EvAckWaitEnd

	numKinds
)

// firstSpanKind is the first begin/end span kind; every kind from here
// to numKinds is part of a begin/end pair, begins on even offsets.
const firstSpanKind = EvSendBegin

// kindNames maps each kind to its chrome://tracing event name, hoisted
// to package scope so String() (called once per event in WriteTrace)
// doesn't rebuild the table per call.
var kindNames = [...]string{
	EvTaskRun:        "task-run",
	EvTaskSteal:      "task-steal",
	EvRdvRTS:         "rdv-rts",
	EvRdvFin:         "rdv-fin",
	EvRetransmit:     "retransmit",
	EvEagerRetry:     "eager-retry",
	EvTimeout:        "timeout",
	EvRailDeath:      "rail-death",
	EvShed:           "shed",
	EvDegrade:        "degrade",
	EvSendBegin:      "send-begin",
	EvSendEnd:        "send-end",
	EvRecvBegin:      "recv-begin",
	EvRecvEnd:        "recv-end",
	EvMatchBegin:     "match-begin",
	EvMatchEnd:       "match-end",
	EvHandshakeBegin: "handshake-begin",
	EvHandshakeEnd:   "handshake-end",
	EvTransferBegin:  "transfer-begin",
	EvTransferEnd:    "transfer-end",
	EvChunkBegin:     "chunk-begin",
	EvChunkEnd:       "chunk-end",
	EvInjectBegin:    "inject-begin",
	EvInjectEnd:      "inject-end",
	EvAckWaitBegin:   "ackwait-begin",
	EvAckWaitEnd:     "ackwait-end",
}

// spanNames maps each span kind to its phase name — the chrome "name"
// shared by both halves of a begin/end pair.
var spanNames = [...]string{
	EvSendBegin:      "send",
	EvSendEnd:        "send",
	EvRecvBegin:      "recv",
	EvRecvEnd:        "recv",
	EvMatchBegin:     "match",
	EvMatchEnd:       "match",
	EvHandshakeBegin: "handshake",
	EvHandshakeEnd:   "handshake",
	EvTransferBegin:  "transfer",
	EvTransferEnd:    "transfer",
	EvChunkBegin:     "chunk",
	EvChunkEnd:       "chunk",
	EvInjectBegin:    "inject",
	EvInjectEnd:      "inject",
	EvAckWaitBegin:   "ackwait",
	EvAckWaitEnd:     "ackwait",
}

// String returns the chrome://tracing event name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// IsSpan reports whether the kind is half of a begin/end span pair.
func (k Kind) IsSpan() bool {
	return k >= firstSpanKind && k < numKinds
}

// IsBegin reports whether the kind opens a span.
func (k Kind) IsBegin() bool {
	return k.IsSpan() && (k-firstSpanKind)%2 == 0
}

// IsEnd reports whether the kind closes a span.
func (k Kind) IsEnd() bool {
	return k.IsSpan() && (k-firstSpanKind)%2 == 1
}

// SpanName returns the phase name shared by both halves of a span pair
// ("send", "handshake", ...), or "" for non-span kinds.
func (k Kind) SpanName() string {
	if k.IsSpan() {
		return spanNames[k]
	}
	return ""
}

// BeginKind returns the opening half of the kind's span pair; the kind
// itself if it is already a begin or not a span.
func (k Kind) BeginKind() Kind {
	if k.IsEnd() {
		return k - 1
	}
	return k
}

// SpanID packing: a span's identity is stable across engines so the
// sender's and receiver's halves of one message correlate. Layout,
// high to low: node 11 bits | peer 11 bits | direction 1 bit |
// aux 8 bits | msgID 33 bits. node/peer are harness-assigned trace
// node ids (cluster node index, or the local gate id when standalone);
// direction is 0 for the sending side, 1 for the receiving side; aux
// carries the chunk ordinal on chunk spans (0 elsewhere); msgID is the
// sender-assigned per-gate message id, truncated to 33 bits.
const (
	spanMsgBits  = 33
	spanAuxBits  = 8
	spanNodeBits = 11

	spanMsgMask  = 1<<spanMsgBits - 1
	spanAuxMask  = 1<<spanAuxBits - 1
	spanNodeMask = 1<<spanNodeBits - 1

	spanAuxShift  = spanMsgBits
	spanDirShift  = spanAuxShift + spanAuxBits
	spanPeerShift = spanDirShift + 1
	spanNodeShift = spanPeerShift + spanNodeBits
)

// Span directions for PackSpanID.
const (
	// DirSend marks a span recorded on the sending side.
	DirSend uint64 = 0
	// DirRecv marks a span recorded on the receiving side.
	DirRecv uint64 = 1
)

// PackSpanID packs a span identity; see the SpanID layout comment.
func PackSpanID(node, peer int, dir uint64, aux uint8, msgID uint64) uint64 {
	return uint64(node)&spanNodeMask<<spanNodeShift |
		uint64(peer)&spanNodeMask<<spanPeerShift |
		dir&1<<spanDirShift |
		uint64(aux)<<spanAuxShift |
		msgID&spanMsgMask
}

// SpanNode returns the recording side's trace node id.
func SpanNode(id uint64) int { return int(id >> spanNodeShift & spanNodeMask) }

// SpanPeer returns the remote side's trace node id.
func SpanPeer(id uint64) int { return int(id >> spanPeerShift & spanNodeMask) }

// SpanDir returns DirSend or DirRecv.
func SpanDir(id uint64) uint64 { return id >> spanDirShift & 1 }

// SpanMsgID returns the sender-assigned message id (33 bits).
func SpanMsgID(id uint64) uint64 { return id & spanMsgMask }

// SpanMsgKey collapses a span id to its message identity — the
// (sender node, receiver node, msgID) triple, direction- and
// aux-independent — so the sender- and receiver-side spans of one
// message share a key.
func SpanMsgKey(id uint64) uint64 {
	src, dst := SpanNode(id), SpanPeer(id)
	if SpanDir(id) == DirRecv {
		src, dst = dst, src
	}
	return uint64(src)<<(spanNodeBits+spanMsgBits) | uint64(dst)<<spanMsgBits | SpanMsgID(id)
}

// Event is one drained flight-recorder entry.
type Event struct {
	// TS is the clock stamp in the recorder's clock units
	// (nanoseconds of wall or virtual time).
	TS int64
	// Ring is the ring the event was recorded under (CPU or gate id,
	// clamped modulo the ring count).
	Ring int
	// Kind identifies the event.
	Kind Kind
	// A and B are the kind-specific payload (see the Kind constants).
	A, B uint64
}

// slot is one ring entry. Every field is atomic so a drain racing a
// record is a skipped or torn-detected slot, never a data race.
type slot struct {
	seq  atomic.Uint64 // 0 while being written, position+1 once published
	ts   atomic.Int64
	kind atomic.Uint32
	a    atomic.Uint64
	b    atomic.Uint64
}

// ring is one independently-positioned event buffer.
type ring struct {
	pos   atomic.Uint64
	slots []slot
	mask  uint64
}

// Recorder is the flight recorder. The zero value is not usable; use
// New. A nil *Recorder is safe to Record on (a no-op), which is what
// makes the disabled path free: engines hold the pointer and hot paths
// guard with a single nil check.
type Recorder struct {
	rings []ring
	clock atomic.Pointer[func() int64]
}

// New builds a recorder with the given number of rings, each holding
// capacity events (rounded up to a power of two, minimum 64). rings is
// clamped to at least 1. clock stamps events; nil means wall-clock
// nanoseconds.
func New(rings, capacity int, clock func() int64) *Recorder {
	if rings < 1 {
		rings = 1
	}
	if capacity < 64 {
		capacity = 64
	}
	capacity = 1 << bits.Len(uint(capacity-1))
	r := &Recorder{rings: make([]ring, rings)}
	for i := range r.rings {
		r.rings[i].slots = make([]slot, capacity)
		r.rings[i].mask = uint64(capacity - 1)
	}
	if clock == nil {
		clock = func() int64 { return time.Now().UnixNano() }
	}
	r.clock.Store(&clock)
	return r
}

// SetClock repoints the recorder's timestamp source; the cluster
// harness uses this to stamp events on the fabric's virtual clock so a
// drained trace lines up with the scenario's modelled time.
func (r *Recorder) SetClock(clock func() int64) {
	if clock == nil {
		clock = func() int64 { return time.Now().UnixNano() }
	}
	r.clock.Store(&clock)
}

// Now reads the recorder's clock: the stamp Record would use. Hooks
// that need to remember a phase start (to emit later via RecordAt)
// read it here so the span lands on the same timeline. Returns 0 on a
// nil receiver.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return (*r.clock.Load())()
}

// Record appends one event to the given ring (clamped modulo the ring
// count), overwriting the oldest entry when the ring is full. Safe for
// concurrent use and safe on a nil receiver, where it is a no-op.
func (r *Recorder) Record(ringIdx int, k Kind, a, b uint64) {
	if r == nil {
		return
	}
	r.record(ringIdx, k, a, b, (*r.clock.Load())())
}

// RecordAt appends one event carrying a caller-supplied timestamp
// instead of sampling the clock — the hook for span begins whose true
// start (an Irecv post, a task submit) predates the moment the span's
// identity becomes known. Safe on a nil receiver.
func (r *Recorder) RecordAt(ringIdx int, k Kind, a, b uint64, ts int64) {
	if r == nil {
		return
	}
	r.record(ringIdx, k, a, b, ts)
}

// record is the shared append path.
func (r *Recorder) record(ringIdx int, k Kind, a, b uint64, ts int64) {
	rg := &r.rings[uint(ringIdx)%uint(len(r.rings))]
	pos := rg.pos.Add(1) - 1
	s := &rg.slots[pos&rg.mask]
	s.seq.Store(0)
	s.ts.Store(ts)
	s.kind.Store(uint32(k))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(pos + 1)
}

// Recorded returns the total number of events ever recorded across all
// rings (including ones since overwritten).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.rings {
		n += r.rings[i].pos.Load()
	}
	return n
}

// RingStat is one ring's append/loss accounting.
type RingStat struct {
	// Recorded is the total events ever appended to the ring.
	Recorded uint64
	// Dropped is how many of those have been overwritten by
	// wraparound — Recorded minus the ring's capacity once it wraps.
	// A drain that matters (trace analysis, CI artifacts) should check
	// this is 0, or treat the trace as truncated.
	Dropped uint64
}

// RingStats returns per-ring append and overwrite counts, the loss
// visibility that makes a truncated trace detectable instead of
// silently partial. Nil receiver returns nil.
func (r *Recorder) RingStats() []RingStat {
	if r == nil {
		return nil
	}
	out := make([]RingStat, len(r.rings))
	for i := range r.rings {
		pos := r.rings[i].pos.Load()
		out[i].Recorded = pos
		if c := uint64(len(r.rings[i].slots)); pos > c {
			out[i].Dropped = pos - c
		}
	}
	return out
}

// Mark is a per-ring position snapshot; EventsSince(mark) drains only
// events recorded after it was taken. The cluster harness marks
// between scenarios to slice one shared recorder per scenario.
type Mark []uint64

// Mark snapshots every ring's position. Nil receiver returns nil.
func (r *Recorder) Mark() Mark {
	if r == nil {
		return nil
	}
	m := make(Mark, len(r.rings))
	for i := range r.rings {
		m[i] = r.rings[i].pos.Load()
	}
	return m
}

// Events drains a consistent best-effort snapshot of every ring,
// skipping slots that are mid-write, and returns the events sorted by
// (timestamp, ring, ring order). The recorder keeps recording; drained
// events are not removed.
func (r *Recorder) Events() []Event {
	return r.EventsSince(nil)
}

// EventsSince drains like Events but skips events recorded at or
// before the mark (a nil or short mark means from the beginning).
// Events the mark references that have since been overwritten are
// gone either way; RingStats exposes the loss.
func (r *Recorder) EventsSince(m Mark) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for ri := range r.rings {
		rg := &r.rings[ri]
		pos := rg.pos.Load()
		start := uint64(0)
		if ri < len(m) {
			start = m[ri]
		}
		if pos > uint64(len(rg.slots)) && start < pos-uint64(len(rg.slots)) {
			start = pos - uint64(len(rg.slots))
		}
		for p := start; p < pos; p++ {
			s := &rg.slots[p&rg.mask]
			if s.seq.Load() != p+1 {
				continue
			}
			ev := Event{TS: s.ts.Load(), Ring: ri, Kind: Kind(s.kind.Load()), A: s.a.Load(), B: s.b.Load()}
			if s.seq.Load() != p+1 { // re-check: a wrapping writer landed mid-read
				continue
			}
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Ring < out[j].Ring
	})
	return out
}

// chromeEvent is one entry of the chrome://tracing JSON array format.
// Instants use ph "i" with a scope; spans use async ph "b"/"e" with a
// matching (cat, id, name) triple so Perfetto pairs them into bars.
// ts is in microseconds.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	ID    string            `json:"id,omitempty"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]uint64 `json:"args"`
}

// WriteTrace drains the recorder and writes the events as a
// chrome://tracing JSON document ({"traceEvents": [...]}), loadable in
// chrome://tracing or Perfetto. Timestamps are converted from the
// recorder clock's nanoseconds to the format's microseconds; each ring
// becomes a tid so per-CPU / per-gate activity lands on its own row.
// Span kinds become async "b"/"e" pairs keyed by the span id; instant
// kinds stay "i".
func (r *Recorder) WriteTrace(w io.Writer) error {
	return writeTraceEvents(w, r.Events())
}

// WriteTraceEvents writes an already-drained (possibly sliced or
// merged) event stream in the same chrome://tracing document format as
// WriteTrace.
func WriteTraceEvents(w io.Writer, events []Event) error {
	return writeTraceEvents(w, events)
}

// writeTraceEvents is the shared chrome JSON emitter.
func writeTraceEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, ev := range events {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		ce := chromeEvent{
			Name:  ev.Kind.String(),
			Phase: "i",
			TS:    float64(ev.TS) / 1e3,
			PID:   0,
			TID:   ev.Ring,
			Scope: "t",
			Args:  map[string]uint64{"a": ev.A, "b": ev.B},
		}
		if ev.Kind.IsSpan() {
			ce.Name = ev.Kind.SpanName()
			ce.Cat = "msg"
			ce.ID = "0x" + strconv.FormatUint(ev.A, 16)
			ce.Scope = ""
			if ev.Kind.IsBegin() {
				ce.Phase = "b"
			} else {
				ce.Phase = "e"
			}
		}
		// Encoder appends a newline after each value; harmless inside
		// a JSON array and keeps the document diffable.
		if err := enc.Encode(ce); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeKinds maps a chrome (name, phase) pair back to the recorder
// kind, the inverse of WriteTrace's rendering.
var chromeKinds = func() map[[2]string]Kind {
	m := make(map[[2]string]Kind, int(numKinds))
	for k := Kind(0); k < numKinds; k++ {
		if k.IsSpan() {
			ph := "e"
			if k.IsBegin() {
				ph = "b"
			}
			m[[2]string{k.SpanName(), ph}] = k
		} else {
			m[[2]string{k.String(), "i"}] = k
		}
	}
	return m
}()

// ReadTrace parses a chrome://tracing document produced by WriteTrace
// back into the drained event stream, so offline tools (cmd/tracestat)
// can analyze a trace file identically to a live drain. Events whose
// (name, phase) pair no recorder kind produces are skipped. Timestamps
// round-trip exactly for clocks below ~2^53 ns (any virtual clock;
// wall-clock traces may lose sub-microsecond precision to the format's
// float microseconds).
func ReadTrace(rd io.Reader) ([]Event, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(rd).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: parse chrome JSON: %w", err)
	}
	events := make([]Event, 0, len(doc.TraceEvents))
	for _, ce := range doc.TraceEvents {
		k, ok := chromeKinds[[2]string{ce.Name, ce.Phase}]
		if !ok {
			continue
		}
		events = append(events, Event{
			TS:   int64(math.Round(ce.TS * 1e3)),
			Ring: ce.TID,
			Kind: k,
			A:    ce.Args["a"],
			B:    ce.Args["b"],
		})
	}
	return events, nil
}
