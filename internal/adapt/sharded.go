package adapt

import (
	"sync/atomic"

	"pioman/internal/spinlock"
)

// shard is one observer's slice of a Sharded estimator — an EWMA word
// plus a sample count used to weight the merged read — padded to a
// cache line so concurrent observers on different shards never
// false-share.
type shard struct {
	est EWMA
	n   atomic.Int64
	_   [spinlock.CacheLineSize - 16]byte
}

// Sharded is a set of cache-line-padded per-shard EWMAs for hot paths
// where many CPUs observe concurrently: each observer folds samples
// into its own shard (typically indexed by CPU), so the estimator adds
// zero cross-core cache traffic to the path being measured. Value
// merges the shards into one estimate, weighted by each shard's sample
// count.
type Sharded struct {
	// Alpha is the per-shard EWMA gain (0 means DefaultAlpha). Set at
	// construction; it must not change once observers run.
	Alpha  float64
	shards []shard
}

// NewSharded builds an estimator with n shards and the given EWMA gain
// (0 means DefaultAlpha).
func NewSharded(n int, alpha float64) *Sharded {
	if n < 1 {
		n = 1
	}
	return &Sharded{Alpha: alpha, shards: make([]shard, n)}
}

// Observe folds one sample into the given shard. Out-of-range shard
// indexes fold into shard 0. Safe for concurrent callers, contention-
// free when each caller owns its shard.
func (s *Sharded) Observe(i int, v float64) {
	if i < 0 || i >= len(s.shards) {
		i = 0
	}
	sh := &s.shards[i]
	sh.est.Observe(s.Alpha, v)
	sh.n.Add(1)
}

// Prime initializes every empty shard's estimate to v without
// counting a sample, so consumers that want an optimistic (or
// pessimistic) starting point decay toward reality gradually instead
// of letting the first real sample set the estimate outright. Shards
// that already hold samples are left alone.
func (s *Sharded) Prime(v float64) {
	for i := range s.shards {
		sh := &s.shards[i]
		if _, ok := sh.est.Value(); !ok {
			sh.est.Observe(1, v) // first sample initializes directly
		}
	}
}

// Shard returns shard i's current estimate and whether it has observed
// any sample.
func (s *Sharded) Shard(i int) (float64, bool) {
	if i < 0 || i >= len(s.shards) {
		return 0, false
	}
	return s.shards[i].est.Value()
}

// Value merges the shards into one estimate — the mean of the shard
// estimates weighted by each shard's sample count — and reports
// whether any shard has observed a sample.
func (s *Sharded) Value() (float64, bool) {
	sum, weight := 0.0, 0.0
	for i := range s.shards {
		v, ok := s.shards[i].est.Value()
		if !ok {
			continue
		}
		n := float64(s.shards[i].n.Load())
		if n <= 0 {
			n = 1
		}
		sum += v * n
		weight += n
	}
	if weight == 0 {
		return 0, false
	}
	return sum / weight, true
}

// Reset discards every shard's samples.
func (s *Sharded) Reset() {
	for i := range s.shards {
		s.shards[i].est.Reset()
		s.shards[i].n.Store(0)
	}
}
