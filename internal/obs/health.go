package obs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pioman/internal/nmad"
)

// Health is a named set of liveness probes behind /healthz. A probe
// returns nil when healthy; the endpoint reports 200 only when every
// probe passes. Safe for concurrent use.
type Health struct {
	mu     sync.Mutex
	names  []string
	probes []func() error
}

// NewHealth returns an empty probe set (which reports healthy).
func NewHealth() *Health { return &Health{} }

// Register adds a named probe.
func (h *Health) Register(name string, probe func() error) {
	h.mu.Lock()
	h.names = append(h.names, name)
	h.probes = append(h.probes, probe)
	h.mu.Unlock()
}

// Check runs every probe and returns overall health plus a one-line-
// per-probe report.
func (h *Health) Check() (ok bool, report string) {
	h.mu.Lock()
	names := append([]string(nil), h.names...)
	probes := append([]func() error(nil), h.probes...)
	h.mu.Unlock()
	ok = true
	for i, p := range probes {
		if err := p(); err != nil {
			ok = false
			report += fmt.Sprintf("%s: %v\n", names[i], err)
		} else {
			report += names[i] + ": ok\n"
		}
	}
	return ok, report
}

// NmadLiveness probes an nmad engine the way the issue defines
// healthy: the progression machinery ran recently (the deadline sweep
// stamped the clock within window), and no gate has lost its last rail.
// clock must match the engine's own, its task engine's Now, so
// virtual-time harnesses compare like with like; nil means that clock.
// window ≤ 0 defaults to 5 s.
func NmadLiveness(e *nmad.Engine, clock func() int64, window time.Duration) func() error {
	if clock == nil {
		clock = e.Tasks().Now
	}
	if window <= 0 {
		window = 5 * time.Second
	}
	return func() error {
		if n := e.FailedGates(); n > 0 {
			return fmt.Errorf("%d gate(s) have no alive rail", n)
		}
		last := e.LastProgress()
		if last == 0 {
			return errors.New("progression has not run yet")
		}
		if age := clock() - last; age > int64(window) {
			return fmt.Errorf("progression last ran %v ago (window %v)", time.Duration(age), window)
		}
		return nil
	}
}
