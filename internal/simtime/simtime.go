// Package simtime is a deterministic discrete-event simulation engine
// with virtual nanosecond time. It underlies the two places the
// repository stands in for hardware we do not have: the machine cost
// model of internal/simmachine (8- and 16-core NUMA Opterons) and the
// virtual clock of fabric.SimFabric (an InfiniBand-class rail under the
// real nmad engine). Both run in virtual time, so results are exact and
// repeatable.
//
// Two styles are supported and freely mixed:
//
//   - event callbacks: Sim.At / Sim.After schedule functions at virtual
//     times;
//   - processes: Spawn starts an imperative goroutine that advances
//     virtual time with Proc.Sleep. The engine enforces strict
//     alternation (exactly one process or event runs at a time), so
//     models are single-threaded and deterministic despite using
//     goroutines.
//
// Ties in event time are broken by scheduling order, which makes runs
// bit-for-bit reproducible.
package simtime

import (
	"container/heap"
	"fmt"
)

// Time is virtual time in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats the time in microseconds for experiment output.
func (t Time) String() string { return fmt.Sprintf("%.3fµs", float64(t)/1000) }

type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is a discrete-event simulator. Not safe for concurrent use: all
// interaction happens from the goroutine calling Run (or from processes,
// which the engine serializes).
type Sim struct {
	now    Time
	events eventHeap
	seq    uint64
	closed bool
	procs  map[*Proc]struct{}
}

// New returns an empty simulation at time 0.
func New() *Sim {
	return &Sim{procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past runs at the current time (after already-queued events at now).
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (s *Sim) After(d Duration, fn func()) { s.At(s.now+d, fn) }

// Step executes the next event, advancing virtual time. It reports false
// when no events remain.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	s.now = e.at
	e.fn()
	return true
}

// Run executes events until none remain, then returns the final time.
func (s *Sim) Run() Time {
	for s.Step() {
	}
	return s.now
}

// RunUntil executes events with time <= t, then sets the clock to t.
func (s *Sim) RunUntil(t Time) {
	for len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Close terminates any processes still parked or never dispatched, so
// their goroutines exit. A process that is itself calling Close is left
// alone. Safe to call multiple times.
func (s *Sim) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for p := range s.procs {
		if p.killable() {
			p.kill()
		}
	}
	s.procs = map[*Proc]struct{}{}
}
