package fabric

import (
	"sync"
	"sync/atomic"
	"time"

	"pioman/internal/adapt"
	"pioman/internal/simtime"
)

// Rail calibration: sampled (rather than assumed) capabilities.
//
// The paper's NewMadeleine drives rail selection with per-rail latency
// and bandwidth figures sampled at startup; this repo's providers so
// far carried *assumed* envelopes instead (the mem and TCP rail
// envelopes in nmad, the SimDomain configuration). The Calibrator closes the loop at runtime:
// it wraps any Endpoint, timestamps every send, attributes completions
// back to sends in FIFO order, and folds the observed timings into
// live estimators —
//
//   - base latency: the windowed minimum of small-send round trips
//     (total time minus the estimated serialization of the probe's own
//     bytes). The minimum over a rotating window is robust against
//     queueing noise — a queued probe can only take longer than the
//     base latency — yet expires, so a rail whose latency genuinely
//     rises re-converges;
//   - bandwidth: an EWMA of per-chunk serialization rates. A chunk
//     that queued behind its predecessor on the same rail is timed
//     completion-to-completion (back-to-back chunks measure pure
//     serialization, latency cancels); an unqueued chunk is timed
//     send-to-completion minus the latency estimate.
//
// Capabilities() then returns the live estimate instead of the wrapped
// envelope, so any consumer of the Capabilities contract — the nmad
// striping policy above all — adapts without knowing calibration
// exists: unknown rails start at zero (equal-weight striping, the
// documented fallback), converge to proportional splits as samples
// arrive, and re-converge when a rail's effective bandwidth shifts
// mid-stream.
//
// Two completion styles are supported. Asynchronous providers that
// post EventSendDone entries (SimFabric with SendCompletions, a future
// verbs binding with signaled sends) are attributed from those events,
// using the provider's own completion Stamp when present. Synchronous
// providers — Loopback, nmad's mem and TCP rails — finish the wire
// write inside Send, so the send is sampled around the call itself.

// calPending is one in-flight send awaiting its completion event. seq
// is the send's position in the endpoint's FIFO completion order, so
// a completion whose send was dropped from a full ring is discarded
// instead of being attributed to the next send's timestamps.
type calPending struct {
	bytes int
	t0    int64
	seq   uint64
}

// calRing bounds the in-flight attribution queue; sends beyond it go
// unsampled (counted in Dropped) rather than allocating.
const calRing = 256

// defaultProbeMax is the largest send treated as a latency probe when
// CalibratorConfig.ProbeMax is zero: control frames and tiny eager
// messages, whose own serialization is a rounding error next to the
// rail latency.
const defaultProbeMax = 512

// CalibratorConfig parameterizes Calibrate.
type CalibratorConfig struct {
	// Clock is the monotonic nanosecond clock send posts are stamped
	// with. Nil defaults to the provider's own clock when it implements
	// Clocked (the simulated fabric's virtual clock), else the wall
	// clock.
	Clock func() int64
	// Alpha is the bandwidth EWMA gain (0 means adapt.DefaultAlpha).
	Alpha float64
	// ProbeMax is the largest total frame size sampled as a latency
	// probe; larger sends sample bandwidth (0 means 512 bytes).
	ProbeMax int
	// Assume seeds the published envelope before any sample arrives.
	// Latency and Bandwidth are taken as given (zero means unknown —
	// the calibration-from-nothing scenario); a zero MaxInject and a
	// false RMA are filled in from the wrapped endpoint, since those
	// are structural properties, not measurements.
	Assume Capabilities
}

// CalibratedEndpoint wraps an Endpoint and publishes measured
// Capabilities. It implements Endpoint (and forwards RMARead when the
// wrapped endpoint supports it); all methods are safe for concurrent
// use, and the sampling path performs no allocation.
type CalibratedEndpoint struct {
	inner Endpoint
	rma   RMAEndpoint // non-nil when inner supports RMA
	clock func() int64
	alpha float64
	probe int
	async bool
	off   bool // async provider with send completions disabled
	base  Capabilities

	mu         sync.Mutex
	ring       [calRing]calPending
	head, tail uint32 // ring indexes; tail-head = in flight
	sendSeq    uint64 // sends posted (ring-dropped ones included)
	doneSeq    uint64 // send completions observed
	lastDone   int64

	// RMA-read attribution: locally posted reads awaiting their
	// EventRMADone, FIFO like sends. Reads are bulk by construction
	// (the pull-mode rendezvous stripes large payloads), so their
	// completions feed the bandwidth EWMA exactly as bulk send
	// completions do — with the same seq matching, so a ring-dropped
	// read's completion is discarded instead of desyncing attribution.
	rmaRing          [calRing]calPending
	rmaHead, rmaTail uint32
	rmaSendSeq       uint64 // reads posted (ring-dropped ones included)
	rmaDoneSeq       uint64 // read completions observed
	rmaLastDone      int64

	lat adapt.Window
	bw  adapt.EWMA

	latSamples atomic.Uint64
	bwSamples  atomic.Uint64
	dropped    atomic.Uint64
}

// Calibrate wraps ep in a calibrator. The returned endpoint is a
// drop-in replacement whose Capabilities are measured, not assumed.
func Calibrate(ep Endpoint, cfg CalibratorConfig) *CalibratedEndpoint {
	c := &CalibratedEndpoint{
		inner: ep,
		clock: cfg.Clock,
		alpha: cfg.Alpha,
		probe: cfg.ProbeMax,
		base:  cfg.Assume,
	}
	if r, ok := ep.(RMAEndpoint); ok {
		c.rma = r
	}
	if sc, ok := ep.(SendCompleter); ok {
		if sc.SendCompletions() {
			c.async = true
		} else {
			// The provider is asynchronous (Send returns before the wire
			// time elapses) but is not posting completions: timing the
			// Send call would sample clock jitter, not the rail. Sampling
			// is disabled — the endpoint keeps working on its Assume seed
			// and Sampling() reports false so misconfiguration is
			// detectable (for SimFabric, set SimConfig.SendCompletions).
			c.off = true
		}
	}
	if c.clock == nil {
		if ck, ok := ep.(Clocked); ok {
			c.clock = ck.ProviderClock()
		} else {
			epoch := time.Now()
			c.clock = func() int64 { return int64(time.Since(epoch)) }
		}
	}
	if c.probe <= 0 {
		c.probe = defaultProbeMax
	}
	inner := ep.Capabilities()
	if c.base.MaxInject == 0 {
		c.base.MaxInject = inner.MaxInject
	}
	if !c.base.RMA {
		c.base.RMA = inner.RMA
	}
	return c
}

// Provider names the wrapped backend.
func (c *CalibratedEndpoint) Provider() string { return c.inner.Provider() }

// Capabilities returns the live estimate: measured latency and
// bandwidth once samples exist, the Assume seed before that, and the
// wrapped endpoint's structural fields throughout.
func (c *CalibratedEndpoint) Capabilities() Capabilities {
	caps := c.base
	if v, ok := c.lat.Min(); ok {
		caps.Latency = simtime.Duration(v)
	}
	if v, ok := c.bw.Value(); ok {
		caps.Bandwidth = v
	}
	return caps
}

// Samples returns how many latency and bandwidth samples have been
// folded into the estimate.
func (c *CalibratedEndpoint) Samples() (lat, bw uint64) {
	return c.latSamples.Load(), c.bwSamples.Load()
}

// Dropped returns how many sends went unsampled because the in-flight
// attribution ring was full.
func (c *CalibratedEndpoint) Dropped() uint64 { return c.dropped.Load() }

// Sampling reports whether the calibrator can actually measure this
// endpoint — false for an asynchronous provider whose send completions
// are disabled, in which case the published envelope never leaves the
// Assume seed.
func (c *CalibratedEndpoint) Sampling() bool { return !c.off }

// Send transmits through the wrapped endpoint, stamping the post time.
// Synchronous providers are sampled immediately; asynchronous ones are
// queued for attribution against their EventSendDone.
func (c *CalibratedEndpoint) Send(imm, payload []byte) error {
	if c.off {
		return c.inner.Send(imm, payload)
	}
	t0 := c.clock()
	if err := c.inner.Send(imm, payload); err != nil {
		return err
	}
	n := len(imm) + len(payload)
	if c.async {
		c.mu.Lock()
		seq := c.sendSeq
		c.sendSeq++
		if c.tail-c.head < calRing {
			c.ring[c.tail%calRing] = calPending{bytes: n, t0: t0, seq: seq}
			c.tail++
		} else {
			c.dropped.Add(1)
		}
		c.mu.Unlock()
		return nil
	}
	tc := c.clock()
	c.mu.Lock()
	c.sample(n, t0, tc)
	c.mu.Unlock()
	return nil
}

// Poll forwards completions from the wrapped endpoint, consuming
// EventSendDone entries internally as calibration samples and sampling
// (but passing through) EventRMADone entries — consumers see exactly
// the event stream they would see uncalibrated, minus the send-done
// bookkeeping.
func (c *CalibratedEndpoint) Poll() (Event, bool, error) {
	for {
		ev, ok, err := c.inner.Poll()
		if err != nil || !ok {
			return ev, ok, err
		}
		if ev.Kind == EventRMADone {
			c.sampleRMADone(ev)
			return ev, ok, nil
		}
		if ev.Kind != EventSendDone {
			return ev, ok, nil
		}
		tc := ev.Stamp
		if tc == 0 {
			tc = c.clock()
		}
		c.mu.Lock()
		seq := c.doneSeq
		c.doneSeq++
		// Completions arrive in send order; a head entry with an older
		// seq lost its completion (the provider dropped it), and a
		// completion whose seq is missing from the ring belongs to a
		// ring-dropped send — either way, attribution stays aligned.
		for c.tail-c.head > 0 && c.ring[c.head%calRing].seq < seq {
			c.head++
		}
		if c.tail-c.head > 0 && c.ring[c.head%calRing].seq == seq {
			p := c.ring[c.head%calRing]
			c.head++
			c.sample(p.bytes, p.t0, tc)
		}
		c.mu.Unlock()
	}
}

// sample folds one attributed send into the estimators. Called with
// c.mu held: attribution order is the sample math's FIFO premise, so
// the completion-to-completion case needs the previous completion
// settled first.
func (c *CalibratedEndpoint) sample(bytes int, t0, tc int64) {
	if tc <= t0 {
		// Clock resolution swallowed the operation (a sub-tick
		// synchronous send); nothing to learn.
		return
	}
	prev := c.lastDone
	if tc > c.lastDone {
		c.lastDone = tc
	}
	total := tc - t0
	if t0 < prev && prev < tc {
		// Queued behind its predecessor on this rail: the gap between
		// the two completions is pure serialization of this chunk —
		// latency cancels, the cleanest bandwidth sample there is.
		if bytes > c.probe {
			c.bw.Observe(c.alpha, float64(bytes)*1e9/float64(tc-prev))
			c.bwSamples.Add(1)
		}
		return
	}
	if bytes <= c.probe {
		// Latency probe: the frame's own serialization is subtracted
		// with the current bandwidth estimate (zero when unknown — for
		// probe-sized frames the correction is sub-percent anyway).
		ser := 0.0
		if bw, ok := c.bw.Value(); ok && bw > 0 {
			ser = float64(bytes) * 1e9 / bw
		}
		if l := float64(total) - ser; l > 0 {
			c.lat.Observe(l)
			c.latSamples.Add(1)
		}
		return
	}
	// Unqueued bulk chunk: total time is latency overhead plus
	// serialization; subtract the latency estimate. Handshake-heavy
	// internal protocols (rendezvous) make this a slight bandwidth
	// underestimate, which the split tolerates and queued samples
	// correct.
	lat := int64(0)
	if v, ok := c.lat.Min(); ok {
		lat = int64(v)
	}
	if serial := total - lat; serial > 0 {
		c.bw.Observe(c.alpha, float64(bytes)*1e9/float64(serial))
		c.bwSamples.Add(1)
	}
}

// RMARead forwards to the wrapped endpoint when it supports RMA;
// otherwise it reports ErrNoRegion. Consumers should gate on
// Capabilities().RMA, which reflects the wrapped endpoint. Posted
// reads are stamped and attributed against their EventRMADone in FIFO
// order, feeding the bandwidth estimate the same way bulk send
// completions do — on a pull-mode receiver, RMA completions are the
// only bulk traffic there is to learn from.
func (c *CalibratedEndpoint) RMARead(key RKey, offset int, local []byte, ctx any) error {
	if c.rma == nil {
		return ErrNoRegion
	}
	t0 := c.clock()
	if err := c.rma.RMARead(key, offset, local, ctx); err != nil {
		return err
	}
	c.mu.Lock()
	seq := c.rmaSendSeq
	c.rmaSendSeq++
	if c.rmaTail-c.rmaHead < calRing {
		c.rmaRing[c.rmaTail%calRing] = calPending{bytes: len(local), t0: t0, seq: seq}
		c.rmaTail++
	} else {
		c.dropped.Add(1)
	}
	c.mu.Unlock()
	return nil
}

// sampleRMADone attributes one RMA completion to the oldest posted
// read. Reads complete in post order per endpoint (they serialize on
// the peer's direction of the link), so FIFO attribution holds the
// same way it does for signaled sends. A queued read — posted before
// its predecessor completed — is timed completion-to-completion, the
// latency-free serialization sample; an unqueued one is timed
// post-to-completion minus the latency estimate.
func (c *CalibratedEndpoint) sampleRMADone(ev Event) {
	tc := ev.Stamp
	if tc == 0 {
		tc = c.clock()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := c.rmaDoneSeq
	c.rmaDoneSeq++
	// Completions arrive in post order; a head entry with an older seq
	// lost its completion, and a completion whose seq is missing from
	// the ring belongs to a ring-dropped read — either way, attribution
	// stays aligned (same discipline as the send ring).
	for c.rmaTail-c.rmaHead > 0 && c.rmaRing[c.rmaHead%calRing].seq < seq {
		c.rmaHead++
	}
	if c.rmaTail == c.rmaHead || c.rmaRing[c.rmaHead%calRing].seq != seq {
		return // not a read we posted (or ring-dropped)
	}
	p := c.rmaRing[c.rmaHead%calRing]
	c.rmaHead++
	if tc <= p.t0 {
		return
	}
	prev := c.rmaLastDone
	if tc > c.rmaLastDone {
		c.rmaLastDone = tc
	}
	if p.t0 < prev && prev < tc {
		c.bw.Observe(c.alpha, float64(p.bytes)*1e9/float64(tc-prev))
		c.bwSamples.Add(1)
		return
	}
	lat := int64(0)
	if v, ok := c.lat.Min(); ok {
		lat = int64(v)
	}
	if serial := tc - p.t0 - lat; serial > 0 {
		c.bw.Observe(c.alpha, float64(p.bytes)*1e9/float64(serial))
		c.bwSamples.Add(1)
	}
}

// Domain returns the wrapped endpoint's resource domain when it
// exposes one, implementing the optional Domained interface so
// calibrated rails stay usable as registration targets.
func (c *CalibratedEndpoint) Domain() Domain {
	if d, ok := c.inner.(Domained); ok {
		return d.Domain()
	}
	return nil
}

// Backlog reports the wrapped endpoint's completion-queue depth.
func (c *CalibratedEndpoint) Backlog() int { return c.inner.Backlog() }

// Close shuts the wrapped endpoint down.
func (c *CalibratedEndpoint) Close() error { return c.inner.Close() }
