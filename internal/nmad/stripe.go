package nmad

// Capability-aware multirail striping.
//
// The seed divided rendezvous payloads evenly across rails, which is
// only optimal when every rail is identical. Real multirail nodes are
// heterogeneous — the paper's BORDERLINE machines carry both Myri-10G
// and ConnectX IB — so the optimal split finishes every rail at the
// same instant: chunk sizes proportional to per-rail bandwidth. Rails
// whose completion queue exceeds their bandwidth-delay product are
// deprioritized (their effective bandwidth is already spoken for),
// and rails that have died are excluded entirely. Rails reporting an
// unknown bandwidth split equally — the Capabilities contract, and the
// seed split the ablation benchmarks reproduce by hiding bandwidth.
//
// The receiver stripes its RMA reads: it sees its own side's live
// capability estimates, which is exactly what a receiver-driven
// protocol wants. A rail is eligible when it is alive, can read, and is
// covered by the sender's key offer.

import "slices"

// minStripeChunk is the smallest chunk worth a read of its own: below
// this, per-read latency dominates the bandwidth gain of using an
// extra rail, so sub-minimum shares fold into the fastest rail.
const minStripeChunk = 4 << 10

// stripeCand is one candidate rail of a split under construction: its
// weight, then its share.
type stripeCand struct {
	rail int
	w    float64
	n    int
}

// stripeRecvChunks splits a rendezvous receive of total bytes across
// the alive rails the sender's offer covers (st.keys), in proportion
// to their capability bandwidth (equal shares when any bandwidth is
// unknown), into the state's chunk table (pooled storage).
// Backpressured rails are skipped while an uncongested rail qualifies;
// shares below minStripeChunk fold into the fastest rail. When no rail
// qualifies — no usable offer — the table is one chunk [0, total) with
// no key behind it, which issueChunk fails visibly. The state is not
// yet published, so no lock is held; the candidates live on the stack,
// so the hot path allocates nothing.
func (g *Gate) stripeRecvChunks(st *recvRdvState, total int) {
	var readyBuf, congestedBuf [8]stripeCand
	ready, congested := readyBuf[:0], congestedBuf[:0]
	for i, r := range g.rails {
		if r.dead.Load() || st.keys[i] == 0 {
			continue
		}
		caps := r.ep.Capabilities()
		if r.backpressured(caps) {
			congested = append(congested, stripeCand{rail: i, w: caps.Bandwidth})
		} else {
			ready = append(ready, stripeCand{rail: i, w: caps.Bandwidth})
		}
	}
	if len(ready) == 0 {
		ready = congested
	}
	st.chunks = st.chunks[:0]
	if len(ready) == 0 {
		st.chunks = append(st.chunks, rdvChunk{st: st, hi: total})
		return
	}
	// A participating rail with an unknown bandwidth makes a
	// proportional split meaningless (its share would be ~0 against
	// absolute bytes/s weights): fall back to equal weights, as the
	// Capabilities contract documents. Judged over the rails actually
	// in the split, not ones excluded as congested or dead.
	if slices.ContainsFunc(ready, func(c stripeCand) bool { return c.w <= 0 }) {
		for i := range ready {
			ready[i].w = 1
		}
	}
	sumW, fastest := 0.0, 0
	for i, c := range ready {
		sumW += c.w
		if c.w > ready[fastest].w {
			fastest = i
		}
	}
	assigned := 0
	for i := range ready {
		ready[i].n = int(float64(total) * ready[i].w / sumW)
		assigned += ready[i].n
	}
	ready[fastest].n += total - assigned // rounding remainder
	for i := range ready {
		if i != fastest && ready[i].n < minStripeChunk {
			ready[fastest].n += ready[i].n
			ready[i].n = 0
		}
	}
	lo := 0
	for _, c := range ready {
		if c.n > 0 {
			st.chunks = append(st.chunks, rdvChunk{st: st, rail: c.rail, idx: len(st.chunks), lo: lo, hi: lo + c.n})
			lo += c.n
		}
	}
}
