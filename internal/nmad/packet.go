// Package nmad is a NewMadeleine-like communication engine built on the
// PIOMan task engine (internal/core). It multiplexes application
// messages over one or more network drivers ("rails"), applies dynamic
// scheduling strategies (aggregation of small messages, multirail
// splitting of large ones — paper Fig. 1), and delegates every internal
// operation — polling a driver, sending a frame, answering a
// rendezvous handshake — to PIOMan tasks so communication progresses in
// the background and overlaps with computation.
//
// Every frame a gate emits leaves through the gate's one send lane,
// whose task is embedded in the gate, so sending a frame performs no
// allocation (paper §IV-B; see lane.go).
package nmad

import (
	"encoding/binary"
	"fmt"
)

// Kind discriminates wire frames.
type Kind uint8

// Frame kinds of the nmad wire protocol.
const (
	// KindEager carries a whole small message.
	KindEager Kind = iota + 1
	// KindAggr carries several small messages packed into one frame.
	KindAggr
	// KindRTS announces a large message (rendezvous request-to-send).
	// Its imm extension may carry a pull offer: per-rail remote keys
	// the receiver can RMA-read the payload through.
	KindRTS
	// KindData is sent by no engine code: every rendezvous payload
	// moves by RMA read. The kind stays for raw Driver traffic, which
	// carries any kind, and an engine ignores it on arrival.
	KindData
	// KindFin ends a rendezvous: the receiver has read every byte, so
	// the sender may release its registered regions and complete its
	// request.
	KindFin
	// KindEagerAck acknowledges eager messages back to their sender,
	// which releases them from its retransmission window (eager.go).
	// MsgID names the lowest; the 64-bit mask in Offset (low half) and
	// Total (high half) names MsgID+1 … MsgID+64 (0 for a plain frame).
	KindEagerAck
	// KindRdvNack reports an unknown rendezvous id back to the peer, so
	// the other side fails its half promptly instead of waiting on a
	// handshake that lost its state. Offset names the side to fail —
	// nackSend or nackRecv: the two directions of one gate share the
	// msgID keyspace (each engine numbers its own sends), so without it
	// a NACK aimed at the peer's receive could kill an unrelated
	// healthy send that happens to carry the same id.
	KindRdvNack
)

// KindRdvNack Offset values: which half of the rendezvous the NACKed
// peer should fail.
const (
	nackSend uint32 = iota // your send lost its other half
	nackRecv               // your receive lost its other half
)

// String names the frame kind.
func (k Kind) String() string {
	switch k {
	case KindEager:
		return "eager"
	case KindAggr:
		return "aggr"
	case KindRTS:
		return "rts"
	case KindData:
		return "data"
	case KindFin:
		return "fin"
	case KindEagerAck:
		return "eager-ack"
	case KindRdvNack:
		return "rdv-nack"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Header is the fixed-size frame header.
type Header struct {
	Kind   Kind
	Tag    uint64 // application tag
	MsgID  uint64 // per-gate message id (sender-assigned)
	Floor  uint64 // lowest msgID the sender may still send; the peer settles all below (window.go)
	Offset uint32 // KindRdvNack: the side to fail; KindEagerAck: mask low half
	Total  uint32 // total message size in bytes; KindEagerAck: mask high half
}

// headerBytes is the encoded header size.
const headerBytes = 1 + 8 + 8 + 8 + 4 + 4

// encode serializes the header into buf (which must hold headerBytes).
func (h Header) encode(buf []byte) {
	buf[0] = byte(h.Kind)
	binary.LittleEndian.PutUint64(buf[1:], h.Tag)
	binary.LittleEndian.PutUint64(buf[9:], h.MsgID)
	binary.LittleEndian.PutUint64(buf[17:], h.Floor)
	binary.LittleEndian.PutUint32(buf[25:], h.Offset)
	binary.LittleEndian.PutUint32(buf[29:], h.Total)
}

// decodeHeader parses a header from buf.
func decodeHeader(buf []byte) (Header, error) {
	if len(buf) < headerBytes {
		return Header{}, fmt.Errorf("nmad: short header (%d bytes)", len(buf))
	}
	return Header{
		Kind:   Kind(buf[0]),
		Tag:    binary.LittleEndian.Uint64(buf[1:]),
		MsgID:  binary.LittleEndian.Uint64(buf[9:]),
		Floor:  binary.LittleEndian.Uint64(buf[17:]),
		Offset: binary.LittleEndian.Uint32(buf[25:]),
		Total:  binary.LittleEndian.Uint32(buf[29:]),
	}, nil
}

// Frame is one unit on the wire: a header plus payload, plus the
// optional immediate-byte extension that follows the encoded header
// (the RTS pull offer rides there, so control frames stay payload-free
// and the fabric providers never buffer rendezvous metadata as data).
type Frame struct {
	Hdr     Header
	Payload []byte
	Ext     []byte
}

// maxOfferRails caps how many per-rail keys an RTS pull offer carries,
// so the offer always fits the imm extension budget of every provider
// (offerEntryBytes each after the fixed header).
const maxOfferRails = 7

// offerEntryBytes is the wire size of one pull-offer entry:
// rail index (u32) + remote key (u64).
const offerEntryBytes = 12

// immBufBytes sizes the send lane's immediate-byte assembly buffer:
// header plus the largest pull offer.
const immBufBytes = headerBytes + maxOfferRails*offerEntryBytes

// appendOfferEntry appends one (rail, key) pull-offer entry to an imm
// extension under assembly.
func appendOfferEntry(ext []byte, rail uint32, key uint64) []byte {
	var e [offerEntryBytes]byte
	binary.LittleEndian.PutUint32(e[0:], rail)
	binary.LittleEndian.PutUint64(e[4:], key)
	return append(ext, e[:]...)
}

// offerEntry decodes entry i of a pull offer; ok is false past the end
// or on a truncated extension.
func offerEntry(ext []byte, i int) (rail uint32, key uint64, ok bool) {
	off := i * offerEntryBytes
	if off+offerEntryBytes > len(ext) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(ext[off:]), binary.LittleEndian.Uint64(ext[off+4:]), true
}
