// Package admit is the engine-level admission-control plane: bounded
// credit ledgers that cap in-flight work (requests and payload bytes)
// per scope — an engine, a gate — with a watermark-based degraded mode
// for graceful load shedding.
//
// The package is deliberately mechanism, not policy: a Ledger only
// answers "do credits exist for this submission?" and tracks a
// degraded flag with hysteresis. What happens on a refusal — block the
// submitter with a deadline, fail fast, shed selectively while
// inflight work drains — is the caller's decision (internal/nmad wires
// the three policies into Isend/IrecvInto). That split keeps the
// accounting a closed arithmetic model a fuzzer can check against a
// reference counter (FuzzCreditAccounting), independent of any
// protocol behaviour.
//
// Credits are conservative: one request credit plus its payload bytes
// are taken before injection and returned exactly once when the
// request reaches any terminal state — completion, timeout, NACK,
// cancellation, gate failure, engine close. A scope whose traffic has
// fully quiesced must report Idle; anything else is a leaked credit,
// and the cluster harness audits exactly that after every scenario.
package admit

import "sync"

// Defaults for unset Config fields. The byte budget is sized so a
// default engine (8 KiB eager threshold) can hold hundreds of large
// transfers before refusing work; per-gate budgets are normally
// derived live from the rails' bandwidth-delay product instead (see
// internal/nmad).
const (
	// DefaultMaxRequests bounds in-flight requests per scope.
	DefaultMaxRequests = 1024
	// DefaultMaxBytes bounds in-flight payload bytes per scope.
	DefaultMaxBytes = 64 << 20
	// DefaultHighWater is the utilization fraction at which a scope
	// enters degraded mode.
	DefaultHighWater = 0.85
	// DefaultLowWater is the utilization fraction at which a degraded
	// scope recovers. The gap against DefaultHighWater is the
	// hysteresis band that stops the flag from flapping at the
	// boundary.
	DefaultLowWater = 0.6
)

// Config bounds an admission scope. The zero value of any field means
// "use the default" (WithDefaults fills them in); GateRequests and
// GateBytes are exceptions — zero there means "derive the gate budget
// live from the rails' measured bandwidth-delay product".
type Config struct {
	// MaxRequests bounds in-flight admitted requests engine-wide
	// (0 → DefaultMaxRequests).
	MaxRequests int
	// MaxBytes bounds in-flight admitted payload bytes engine-wide
	// (0 → DefaultMaxBytes).
	MaxBytes int64
	// GateRequests bounds in-flight admitted requests per gate; 0
	// derives the budget from the gate's live BDP estimate.
	GateRequests int
	// GateBytes bounds in-flight admitted payload bytes per gate; 0
	// derives the budget from the gate's live BDP estimate.
	GateBytes int64
	// HighWater is the utilization fraction (of either budget
	// dimension) at which the scope turns degraded (0 →
	// DefaultHighWater).
	HighWater float64
	// LowWater is the utilization fraction at which a degraded scope
	// recovers (0 → DefaultLowWater).
	LowWater float64
	// MaxWaiters bounds how many refused submissions a blocking policy
	// may park awaiting credits (0 → 4 × MaxRequests). A full wait
	// queue rejects instead of queueing without bound — the queue is
	// itself admission-controlled.
	MaxWaiters int
}

// WithDefaults returns the config with every unset field replaced by
// its default. GateRequests and GateBytes are left alone: zero is
// meaningful there (live BDP derivation).
func (c Config) WithDefaults() Config {
	if c.MaxRequests <= 0 {
		c.MaxRequests = DefaultMaxRequests
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultMaxBytes
	}
	if c.HighWater <= 0 || c.HighWater > 1 {
		c.HighWater = DefaultHighWater
	}
	if c.LowWater <= 0 || c.LowWater >= c.HighWater {
		c.LowWater = DefaultLowWater
		if c.LowWater >= c.HighWater {
			c.LowWater = c.HighWater / 2
		}
	}
	if c.MaxWaiters <= 0 {
		c.MaxWaiters = 4 * c.MaxRequests
	}
	return c
}

// Ledger is one admission scope's credit ledger: in-flight requests
// and payload bytes against their budgets, plus the degraded flag with
// watermark hysteresis. All methods are safe for concurrent use.
type Ledger struct {
	mu       sync.Mutex
	maxReqs  int
	maxBytes int64
	high     float64
	low      float64
	reqs     int
	bytes    int64
	degraded bool
}

// NewLedger builds a ledger with the given budgets and watermarks.
// Non-positive budgets fall back to the package defaults; watermarks
// outside (0, 1] likewise.
func NewLedger(maxReqs int, maxBytes int64, high, low float64) *Ledger {
	if maxReqs <= 0 {
		maxReqs = DefaultMaxRequests
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if high <= 0 || high > 1 {
		high = DefaultHighWater
	}
	if low <= 0 || low >= high {
		low = min(DefaultLowWater, high/2)
	}
	return &Ledger{maxReqs: maxReqs, maxBytes: maxBytes, high: high, low: low}
}

// SetLimits replaces the ledger's budgets in place — how a gate ledger
// tracks the live BDP estimate as calibration refines it. Shrinking
// below current holdings is allowed: nothing is revoked, the scope is
// simply over budget until releases drain it, and the watermark is
// re-evaluated against the new limits immediately.
func (l *Ledger) SetLimits(maxReqs int, maxBytes int64) (flipped bool) {
	if maxReqs <= 0 {
		maxReqs = DefaultMaxRequests
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.maxReqs, l.maxBytes = maxReqs, maxBytes
	return l.watermarkLocked()
}

// TryAcquire takes one request credit plus n payload bytes if the
// budgets allow, reporting whether it succeeded and whether the
// degraded flag flipped as a result. An otherwise-empty ledger admits
// a single submission larger than the whole byte budget — an
// oversized message must be able to progress alone, or a blocking
// submitter would wait forever on credits that can never exist.
func (l *Ledger) TryAcquire(n int64) (ok, flipped bool) {
	if n < 0 {
		n = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.reqs+1 > l.maxReqs {
		return false, false
	}
	if l.bytes+n > l.maxBytes && l.reqs > 0 {
		return false, false
	}
	l.reqs++
	l.bytes += n
	return true, l.watermarkLocked()
}

// Release returns one request credit plus n payload bytes, reporting
// whether the degraded flag flipped. Releasing credits that were never
// acquired is a caller accounting bug and panics loudly — a silent
// underflow would defeat the leak audit the ledger exists to serve.
func (l *Ledger) Release(n int64) (flipped bool) {
	if n < 0 {
		n = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reqs--
	l.bytes -= n
	if l.reqs < 0 || l.bytes < 0 {
		panic("admit: credit underflow (release without matching acquire)")
	}
	return l.watermarkLocked()
}

// watermarkLocked re-evaluates the degraded flag against the current
// utilization and reports whether it flipped. Called with l.mu held.
func (l *Ledger) watermarkLocked() bool {
	u := l.utilLocked()
	switch {
	case !l.degraded && u >= l.high:
		l.degraded = true
		return true
	case l.degraded && u <= l.low:
		l.degraded = false
		return true
	}
	return false
}

// utilLocked is the scope's utilization: the worse of the two budget
// dimensions, as a fraction. Called with l.mu held.
func (l *Ledger) utilLocked() float64 {
	ur := float64(l.reqs) / float64(l.maxReqs)
	ub := float64(l.bytes) / float64(l.maxBytes)
	return max(ur, ub)
}

// Degraded reports whether the scope is in degraded mode: utilization
// crossed the high watermark and has not yet drained below the low
// one.
func (l *Ledger) Degraded() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// Inflight returns the credits currently held: admitted requests and
// payload bytes.
func (l *Ledger) Inflight() (reqs int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reqs, l.bytes
}

// Idle reports whether the ledger holds no credits — the post-quiesce
// invariant: every admitted request returned what it took.
func (l *Ledger) Idle() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reqs == 0 && l.bytes == 0
}

// Snapshot is a point-in-time view of a ledger, for metrics export.
type Snapshot struct {
	// Requests and Bytes are the credits currently held.
	Requests int
	// Bytes is the payload-byte credits currently held.
	Bytes int64
	// MaxRequests and MaxBytes are the budgets.
	MaxRequests int
	// MaxBytes is the payload-byte budget.
	MaxBytes int64
	// Degraded reports the watermark state.
	Degraded bool
}

// Snapshot returns the ledger's current state in one consistent read.
func (l *Ledger) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Snapshot{
		Requests:    l.reqs,
		Bytes:       l.bytes,
		MaxRequests: l.maxReqs,
		MaxBytes:    l.maxBytes,
		Degraded:    l.degraded,
	}
}
