package nmad

import "math/bits"

// recvWindow is one gate's exact record of the peer msgIDs settled here
// — an eager message delivered or stashed, a rendezvous receive
// finished or failed — so a retransmission is recognized however much
// traffic came between. It is TCP's sequence space with selective bits
// (RFC 2018): every id below base is settled, and bits holds the
// settled ids above it, bits[0] covering the 64 from base&^63. It grows
// on demand; a gate that never receives allocates nothing. The holes a
// sender's failed sends leave are closed by its floor (Header.Floor),
// so the span is bounded by the sender's own in-flight span (DESIGN.md
// "Exactly-once: the receive window"). Guarded by Gate.mu.
type recvWindow struct {
	base uint64
	bits []uint64
}

// maxWindowSpan bounds how far past the base an id may lie: a frame
// further out is malformed peer input, neither recorded nor acked.
const maxWindowSpan = 1 << 24

// settled reports whether id settled here.
func (w *recvWindow) settled(id uint64) bool {
	i := id - w.base&^63
	return id < w.base || i>>6 < uint64(len(w.bits)) && w.bits[i>>6]&(1<<(i&63)) != 0
}

// accepts reports whether id lies below base+maxWindowSpan.
func (w *recvWindow) accepts(id uint64) bool { return id < w.base+maxWindowSpan }

// add records id as settled. False: it already was. An id read off the
// wire is checked with accepts first.
func (w *recvWindow) add(id uint64) bool {
	if w.settled(id) {
		return false
	}
	i := id - w.base&^63
	if n := int(i>>6) + 1; n > len(w.bits) {
		w.bits = append(w.bits, make([]uint64, n-len(w.bits))...)
	}
	w.bits[i>>6] |= 1 << (i & 63)
	w.raise(w.base)
	return true
}

// raise settles every id below floor — the peer sends none of them
// again — then moves the base over the settled ids that start at it,
// dropping the words wholly below it.
func (w *recvWindow) raise(floor uint64) {
	for b := max(floor, w.base); ; {
		if drop := b>>6 - w.base>>6; drop >= uint64(len(w.bits)) {
			w.bits = w.bits[:0]
		} else if drop > 0 {
			w.bits = w.bits[:copy(w.bits, w.bits[drop:])]
		}
		w.base = b
		if len(w.bits) == 0 {
			return
		}
		run := bits.TrailingZeros64(^(w.bits[0] >> (b & 63)))
		if run == 0 {
			return
		}
		b += uint64(run)
	}
}
