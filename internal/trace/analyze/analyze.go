// Package analyze reconstructs message-lifecycle span trees from a
// drained flight-recorder event stream and attributes each message's
// latency to protocol phases.
//
// The input is the flat []trace.Event a Recorder drains (or
// trace.ReadTrace parses back from a chrome JSON file): span begin/end
// pairs keyed by packed span ids, plus instant events (retransmits,
// timeouts) that annotate them. The output is a Report: per-message
// span trees spanning both the sender's and receiver's rings,
// per-phase duration histograms, a critical-path (dominant phase) call
// per message and per stream, and anomaly flags — retransmit-stalled,
// timeout-killed, head-of-line-blocked messages.
//
// Pairing is deliberately lenient about retransmission: a phase that
// restarts (an eager frame re-injected after loss) records a second
// begin under the same span id, so a span's extent is first begin →
// last end, and a span is complete once it has at least one of each.
// Everything is deterministic: same event stream in, same report out,
// with all map iteration replaced by sorted walks.
package analyze

import (
	"fmt"
	"sort"

	"pioman/internal/stats"
	"pioman/internal/trace"
)

// Span is one reconstructed begin/end phase of a message, on one side.
type Span struct {
	// ID is the packed span id (trace.PackSpanID layout).
	ID uint64
	// Kind is the begin kind of the pair (trace.EvHandshakeBegin, ...).
	Kind trace.Kind
	// Name is the phase name ("send", "handshake", "chunk", ...).
	Name string
	// Ring is the ring the begin was recorded on.
	Ring int
	// Start is the first begin timestamp, End the last end timestamp
	// (clock units). A span missing its end has End == 0.
	Start, End int64
	// Bytes is the begin event's B payload (message or chunk bytes).
	Bytes uint64
	// Status is the last end event's B payload: 0 success, nonzero
	// failure.
	Status uint64
	// Begins and Ends count the raw events folded into the span;
	// Begins > 1 means the phase restarted (retransmission).
	Begins, Ends int
}

// Complete reports whether the span has both halves.
func (s *Span) Complete() bool { return s.Begins > 0 && s.Ends > 0 }

// Duration is last end − first begin, or 0 while incomplete.
func (s *Span) Duration() int64 {
	if !s.Complete() {
		return 0
	}
	return s.End - s.Start
}

// Anomaly flags a message's pathology.
type Anomaly string

// Anomaly kinds.
const (
	// RetransmitStalled: the message needed at least one control or
	// eager retransmission.
	RetransmitStalled Anomaly = "retransmit-stalled"
	// TimeoutKilled: a side gave up permanently (EvTimeout, or a
	// whole-message span ended with a failure status).
	TimeoutKilled Anomaly = "timeout-killed"
	// HeadOfLineBlocked: the receiver spent ≥ half its lifetime in
	// match wait AND that wait is a ≥4× outlier against the stream's
	// median match wait — the frame was behind something (a
	// duplicate, an unmatched queue) rather than on the wire.
	// The outlier gate keeps ordinary eager messages (whose only
	// receiver phase is the match wait) from all flagging.
	HeadOfLineBlocked Anomaly = "head-of-line-blocked"
)

// Message is one reconstructed message: every span recorded for it on
// either engine, keyed by the direction-independent message identity.
type Message struct {
	// Key is trace.SpanMsgKey of every constituent span.
	Key uint64
	// Src and Dst are the sender's and receiver's trace node ids.
	Src, Dst int
	// MsgID is the sender-assigned message id.
	MsgID uint64
	// Bytes is the message size (from the first whole-message begin
	// that carries one).
	Bytes uint64
	// Spans holds every phase span, sorted by (Start, ID, Kind).
	Spans []*Span
	// Send and Recv are the whole-message spans (nil when that side's
	// ring wasn't drained or wrapped past them).
	Send, Recv *Span
	// Retransmits counts EvRetransmit + EvEagerRetry instants whose
	// span id collapses to this message.
	Retransmits int
	// TimedOut reports an EvTimeout instant for this message.
	TimedOut bool
	// Anomalies, sorted, deduplicated.
	Anomalies []Anomaly
}

// Completed reports whether any whole-message span finished cleanly.
func (m *Message) Completed() bool {
	return (m.Send != nil && m.Send.Complete() && m.Send.Status == 0) ||
		(m.Recv != nil && m.Recv.Complete() && m.Recv.Status == 0)
}

// Failed reports whether any whole-message span ended in error or the
// message timed out.
func (m *Message) Failed() bool {
	if m.TimedOut {
		return true
	}
	for _, s := range []*Span{m.Send, m.Recv} {
		if s != nil && s.Complete() && s.Status != 0 {
			return true
		}
	}
	return false
}

// Start is the earliest whole-message begin, End the latest
// whole-message end; Duration the difference (0 if incomplete).
func (m *Message) Start() int64 {
	start := int64(0)
	for _, s := range []*Span{m.Send, m.Recv} {
		if s != nil && s.Begins > 0 && (start == 0 || s.Start < start) {
			start = s.Start
		}
	}
	return start
}

// End returns the latest whole-message end timestamp.
func (m *Message) End() int64 {
	end := int64(0)
	for _, s := range []*Span{m.Send, m.Recv} {
		if s != nil && s.Complete() && s.End > end {
			end = s.End
		}
	}
	return end
}

// Duration returns End − Start, or 0 while incomplete.
func (m *Message) Duration() int64 {
	s, e := m.Start(), m.End()
	if s == 0 || e == 0 || e < s {
		return 0
	}
	return e - s
}

// Orphans counts phase spans missing their end — zero for every
// completed message in a lossless run.
func (m *Message) Orphans() int {
	n := 0
	for _, s := range m.Spans {
		if !s.Complete() {
			n++
		}
	}
	for _, s := range []*Span{m.Send, m.Recv} {
		if s != nil && !s.Complete() {
			n++
		}
	}
	return n
}

// phaseSpan reports whether the span contributes to phase attribution:
// top-level phases only — chunk spans are children of transfer and
// would double-count.
func phaseSpan(s *Span) bool {
	return s.Kind != trace.EvChunkBegin
}

// CriticalPhase returns the dominant phase — the top-level phase span
// with the largest duration — and that duration. Ties break toward
// the earlier protocol phase (span order). Returns ("", 0) when no
// complete phase span exists.
func (m *Message) CriticalPhase() (string, int64) {
	name, dur := "", int64(0)
	for _, s := range m.Spans {
		if !phaseSpan(s) || !s.Complete() {
			continue
		}
		if d := s.Duration(); d > dur {
			name, dur = s.Name, d
		}
	}
	return name, dur
}

// SideCoverage sums the side's top-level phase durations against its
// whole-message span: the Σ-phase tie-out. ok is false when the side
// has no complete whole-message span to tie against.
func (m *Message) SideCoverage(dir uint64) (phaseSum, span int64, ok bool) {
	whole := m.Send
	if dir == trace.DirRecv {
		whole = m.Recv
	}
	if whole == nil || !whole.Complete() {
		return 0, 0, false
	}
	for _, s := range m.Spans {
		if !phaseSpan(s) || !s.Complete() || trace.SpanDir(s.ID) != dir {
			continue
		}
		phaseSum += s.Duration()
	}
	return phaseSum, whole.Duration(), true
}

// Report is the full analysis of one drained event stream.
type Report struct {
	// Messages, sorted by (Start, Key) so output order is
	// deterministic and roughly chronological.
	Messages []*Message
	// Phases maps phase name → duration histogram over complete spans
	// (clock units, i.e. nanoseconds).
	Phases map[string]*stats.Histogram
	// Completed, Failed, Incomplete partition Messages.
	Completed, Failed, Incomplete int
	// OrphanSpans counts phase spans without an end across completed
	// messages only — the pairing invariant; incomplete (in-flight or
	// killed) messages legitimately carry open spans.
	OrphanSpans int
	// Anomalies counts messages per anomaly kind.
	Anomalies map[Anomaly]int
}

// PhaseNames returns the report's phase names, sorted.
func (r *Report) PhaseNames() []string {
	names := make([]string, 0, len(r.Phases))
	for n := range r.Phases {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CriticalPath returns the top-n completed messages by duration — the
// slowest chains in the stream — slowest first, ties broken by key.
func (r *Report) CriticalPath(n int) []*Message {
	done := make([]*Message, 0, len(r.Messages))
	for _, m := range r.Messages {
		if m.Completed() {
			done = append(done, m)
		}
	}
	sort.SliceStable(done, func(i, j int) bool {
		di, dj := done[i].Duration(), done[j].Duration()
		if di != dj {
			return di > dj
		}
		return done[i].Key < done[j].Key
	})
	if n > 0 && len(done) > n {
		done = done[:n]
	}
	return done
}

// spanKey identifies one logical span: the packed id plus the pair's
// begin kind (one id can carry several phases, e.g. handshake and
// transfer share the message-level id).
type spanKey struct {
	id   uint64
	kind trace.Kind
}

// Analyze reconstructs the report from a drained event stream. The
// stream may interleave many messages and both sides' rings; events
// need not be sorted.
func Analyze(events []trace.Event) *Report {
	spans := make(map[spanKey]*Span)
	var order []spanKey // first-appearance order, for determinism
	type instant struct {
		kind trace.Kind
		id   uint64
	}
	var instants []instant

	for _, ev := range events {
		switch {
		case ev.Kind.IsSpan():
			k := spanKey{id: ev.A, kind: ev.Kind.BeginKind()}
			s := spans[k]
			if s == nil {
				s = &Span{ID: ev.A, Kind: k.kind, Name: k.kind.SpanName(), Ring: ev.Ring}
				spans[k] = s
				order = append(order, k)
			}
			if ev.Kind.IsBegin() {
				if s.Begins == 0 || ev.TS < s.Start {
					s.Start = ev.TS
					s.Ring = ev.Ring
				}
				s.Begins++
				if s.Bytes == 0 {
					s.Bytes = ev.B
				}
			} else {
				if ev.TS > s.End {
					s.End = ev.TS
				}
				s.Ends++
				s.Status = ev.B
			}
		case ev.Kind == trace.EvRetransmit || ev.Kind == trace.EvEagerRetry || ev.Kind == trace.EvTimeout:
			instants = append(instants, instant{kind: ev.Kind, id: ev.A})
		}
	}

	msgs := make(map[uint64]*Message)
	var msgOrder []uint64
	getMsg := func(id uint64) *Message {
		key := trace.SpanMsgKey(id)
		m := msgs[key]
		if m == nil {
			src, dst := trace.SpanNode(id), trace.SpanPeer(id)
			if trace.SpanDir(id) == trace.DirRecv {
				src, dst = dst, src
			}
			m = &Message{Key: key, Src: src, Dst: dst, MsgID: trace.SpanMsgID(id)}
			msgs[key] = m
			msgOrder = append(msgOrder, key)
		}
		return m
	}

	for _, k := range order {
		s := spans[k]
		m := getMsg(s.ID)
		switch s.Kind {
		case trace.EvSendBegin:
			m.Send = s
		case trace.EvRecvBegin:
			m.Recv = s
		default:
			m.Spans = append(m.Spans, s)
		}
		if m.Bytes == 0 && (s.Kind == trace.EvSendBegin || s.Kind == trace.EvRecvBegin) {
			m.Bytes = s.Bytes
		}
	}
	for _, in := range instants {
		m := getMsg(in.id)
		if in.kind == trace.EvTimeout {
			m.TimedOut = true
		} else {
			m.Retransmits++
		}
	}

	rep := &Report{
		Phases:    make(map[string]*stats.Histogram),
		Anomalies: make(map[Anomaly]int),
	}
	for _, key := range msgOrder {
		m := msgs[key]
		sort.SliceStable(m.Spans, func(i, j int) bool {
			a, b := m.Spans[i], m.Spans[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			if a.ID != b.ID {
				return a.ID < b.ID
			}
			return a.Kind < b.Kind
		})
		rep.Messages = append(rep.Messages, m)

		switch {
		case m.Completed():
			rep.Completed++
			rep.OrphanSpans += m.Orphans()
		case m.Failed():
			rep.Failed++
		default:
			rep.Incomplete++
		}
		for _, s := range m.Spans {
			if phaseSpan(s) && s.Complete() {
				h := rep.Phases[s.Name]
				if h == nil {
					h = &stats.Histogram{}
					rep.Phases[s.Name] = h
				}
				h.Record(s.Duration())
			}
		}
	}
	// Anomaly flagging needs the stream-wide match-wait median (the
	// head-of-line outlier baseline), so it runs after the histogram
	// pass.
	matchMedian := int64(0)
	if h := rep.Phases["match"]; h != nil && h.Count() > 0 {
		matchMedian = h.Quantile(0.5)
	}
	for _, key := range msgOrder {
		m := msgs[key]
		m.flagAnomalies(matchMedian)
		for _, a := range m.Anomalies {
			rep.Anomalies[a]++
		}
	}
	sort.SliceStable(rep.Messages, func(i, j int) bool {
		si, sj := rep.Messages[i].Start(), rep.Messages[j].Start()
		if si != sj {
			return si < sj
		}
		return rep.Messages[i].Key < rep.Messages[j].Key
	})
	return rep
}

// flagAnomalies fills m.Anomalies from the reconstructed state;
// matchMedian is the stream-wide median match wait, the head-of-line
// outlier baseline.
func (m *Message) flagAnomalies(matchMedian int64) {
	if m.Retransmits > 0 {
		m.Anomalies = append(m.Anomalies, RetransmitStalled)
	}
	if m.Failed() {
		m.Anomalies = append(m.Anomalies, TimeoutKilled)
	}
	if m.Recv != nil && m.Recv.Complete() && matchMedian > 0 {
		for _, s := range m.Spans {
			if s.Kind == trace.EvMatchBegin && s.Complete() &&
				m.Recv.Duration() > 0 &&
				s.Duration()*2 >= m.Recv.Duration() &&
				s.Duration() >= 4*matchMedian {
				m.Anomalies = append(m.Anomalies, HeadOfLineBlocked)
				break
			}
		}
	}
}

// Label renders the message identity for human output:
// "src→dst #msgID".
func (m *Message) Label() string {
	return fmt.Sprintf("%d→%d #%d", m.Src, m.Dst, m.MsgID)
}
