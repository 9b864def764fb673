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
	mu        sync.Mutex
	names     []string
	probes    []func() error
	infoNames []string
	infos     []func() string
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

// RegisterInfo adds a named informational line to the /healthz report.
// Info never affects overall health: it exists for states that are
// abnormal but alive — an engine shedding load in degraded mode is
// degraded, not dead, and must not flip the endpoint to 503.
func (h *Health) RegisterInfo(name string, info func() string) {
	h.mu.Lock()
	h.infoNames = append(h.infoNames, name)
	h.infos = append(h.infos, info)
	h.mu.Unlock()
}

// Check runs every probe and returns overall health plus a one-line-
// per-probe report, followed by the informational lines.
func (h *Health) Check() (ok bool, report string) {
	h.mu.Lock()
	names := append([]string(nil), h.names...)
	probes := append([]func() error(nil), h.probes...)
	infoNames := append([]string(nil), h.infoNames...)
	infos := append([]func() string(nil), h.infos...)
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
	for i, f := range infos {
		report += fmt.Sprintf("%s: %s\n", infoNames[i], f())
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

// NmadAdmission reports an engine's admission plane for the /healthz
// info section: budget occupancy, parked submissions, and the degraded
// flag. Degraded means the engine is deliberately shedding load while
// its inflight drains back under the low watermark — a state to alarm
// on, not a liveness failure, so it rides RegisterInfo and never turns
// the endpoint unhealthy.
func NmadAdmission(e *nmad.Engine) func() string {
	return func() string {
		ai := e.AdmitInfo()
		if !ai.Enabled {
			return "admission off"
		}
		state := "healthy"
		if ai.Degraded {
			state = "degraded (shedding load, not dead)"
		}
		return fmt.Sprintf("%s; inflight %d/%d requests, %d/%d bytes; %d waiting",
			state, ai.Requests, ai.MaxRequests, ai.Bytes, ai.MaxBytes, ai.Waiting)
	}
}
