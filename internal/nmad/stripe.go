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
// Both directions stripe: the sender for the byte ranges it is asked
// to push, the receiver for its RMA reads (it sees its own side's live
// capability estimates, which is exactly what a receiver-driven
// protocol wants). The arithmetic is shared; eligibility differs — a
// pull additionally needs the rail to be RMA-capable and covered by
// the sender's key offer.

// chunk is one rendezvous fragment assignment: payload[lo:hi] rides
// the given rail.
type chunk struct {
	rail   int
	lo, hi int
}

// minStripeChunk is the smallest fragment worth a frame of its own:
// below this, per-frame latency dominates the bandwidth gain of using
// an extra rail, so sub-minimum shares fold into the fastest rail.
const minStripeChunk = 4 << 10

// stripeCand is one candidate rail of a split under construction.
type stripeCand struct {
	rail int
	w    float64
}

// stripeScratchT holds the working storage of one striping pass, so
// the hot paths (every rendezvous, both directions) allocate nothing.
type stripeScratchT struct {
	ready     []stripeCand
	congested []stripeCand
	sizes     []int
	chunks    []chunk
}

// stripeScratch takes a scratch from the gate's pool.
func (g *Gate) stripeScratch() *stripeScratchT {
	sc, _ := g.stripePool.Get().(*stripeScratchT)
	if sc == nil {
		sc = &stripeScratchT{}
	}
	return sc
}

// putStripeScratch recycles a scratch. The chunks it returned from
// stripeInto become invalid — callers copy them out first when they
// outlive the pass.
func (g *Gate) putStripeScratch(sc *stripeScratchT) {
	sc.ready = sc.ready[:0]
	sc.congested = sc.congested[:0]
	sc.sizes = sc.sizes[:0]
	sc.chunks = sc.chunks[:0]
	g.stripePool.Put(sc)
}

// stripe splits a payload of the given size across the gate's alive
// rails in proportion to their capability bandwidth (equal shares when
// any bandwidth is unknown). Backpressured rails are skipped while an
// uncongested rail exists; shares below minStripeChunk fold into the
// fastest rail. Returns nil when every rail is dead. This convenience
// wrapper allocates its result; the protocol paths use stripeInto
// with a pooled scratch.
func (g *Gate) stripe(total int) []chunk {
	sc := g.stripeScratch()
	defer g.putStripeScratch(sc)
	return append([]chunk(nil), g.stripeInto(sc, total, nil)...)
}

// stripeInto computes the split into sc's storage, considering only
// alive rails accepted by eligible (nil accepts all). The returned
// slice aliases sc and dies with it.
func (g *Gate) stripeInto(sc *stripeScratchT, total int, eligible func(int) bool) []chunk {
	for i, r := range g.rails {
		if r.dead.Load() || (eligible != nil && !eligible(i)) {
			continue
		}
		caps := r.ep.Capabilities()
		w := caps.Bandwidth
		if r.backpressured(caps) {
			sc.congested = append(sc.congested, stripeCand{rail: i, w: w})
		} else {
			sc.ready = append(sc.ready, stripeCand{rail: i, w: w})
		}
	}
	ready := sc.ready
	if len(ready) == 0 {
		ready = sc.congested
	}
	if len(ready) == 0 {
		return nil
	}
	// A participating rail with an unknown bandwidth makes a
	// proportional split meaningless (its share would be ~0 against
	// absolute bytes/s weights): fall back to equal weights, as the
	// Capabilities contract documents. Judged over the rails actually
	// in the split, not ones excluded as congested or dead.
	unknown := false
	for _, c := range ready {
		if c.w <= 0 {
			unknown = true
		}
	}
	if unknown {
		for i := range ready {
			ready[i].w = 1
		}
	}

	sumW := 0.0
	fastest := 0
	for i, c := range ready {
		sumW += c.w
		if c.w > ready[fastest].w {
			fastest = i
		}
	}
	sizes := sc.sizes[:0]
	assigned := 0
	for _, c := range ready {
		s := int(float64(total) * c.w / sumW)
		sizes = append(sizes, s)
		assigned += s
	}
	sizes[fastest] += total - assigned // rounding remainder
	for i := range sizes {
		if i != fastest && sizes[i] < minStripeChunk {
			sizes[fastest] += sizes[i]
			sizes[i] = 0
		}
	}
	sc.sizes = sizes

	out := sc.chunks[:0]
	lo := 0
	for i, c := range ready {
		if sizes[i] == 0 {
			continue
		}
		out = append(out, chunk{rail: c.rail, lo: lo, hi: lo + sizes[i]})
		lo += sizes[i]
	}
	sc.chunks = out
	return out
}

// stripeRecvChunks stripes a rendezvous receive across the rails the
// sender's offer covers and this side can read through, materializing
// the result as the state's chunk table (pooled storage). When no rail
// qualifies — no offer, a classic mem/TCP gate — the table is one
// chunk [0, total) with no key behind it, which issueChunk turns into
// a push request. The state is not yet published, so no lock is held.
func (g *Gate) stripeRecvChunks(st *recvRdvState, total int) {
	sc := g.stripeScratch()
	defer g.putStripeScratch(sc)
	chunks := g.stripeInto(sc, total, func(i int) bool {
		return st.keys[i] != 0 && g.rails[i].rma != nil
	})
	st.chunks = st.chunks[:0]
	for i, c := range chunks {
		st.chunks = append(st.chunks, rdvChunk{st: st, rail: c.rail, idx: i, lo: c.lo, hi: c.hi})
	}
	if len(st.chunks) == 0 {
		st.chunks = append(st.chunks, rdvChunk{st: st, hi: total})
	}
}

// wireTime estimates, in Clock nanoseconds, how long n bytes striped
// over the gate's alive rails spend on the wire, from the bandwidths
// they advertise (0 when none does). Retry deadlines add it so a large
// transfer that is merely slow is not mistaken for a lost one.
func (g *Gate) wireTime(n int) int64 {
	bw := 0.0
	for _, r := range g.rails {
		if !r.dead.Load() {
			bw += r.ep.Capabilities().Bandwidth
		}
	}
	if bw <= 0 {
		return 0
	}
	return int64(float64(n) / bw * 1e9)
}
