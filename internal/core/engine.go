package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pioman/internal/adapt"
	"pioman/internal/cpuset"
	"pioman/internal/spinlock"
	"pioman/internal/stats"
	"pioman/internal/topology"
	"pioman/internal/trace"
)

// Config parameterizes an Engine.
type Config struct {
	// Topology is the machine the queue hierarchy is mapped onto.
	// Defaults to topology.Host().
	Topology *topology.Topology
	// QueueKind selects the queue protection strategy (default spinlock).
	QueueKind QueueKind
	// SingleGlobalQueue disables the hierarchy and stores every task in
	// one global list — the "naive solution" / big-lock baseline of §III
	// used by the ablation benchmarks.
	SingleGlobalQueue bool
	// AlwaysLock disables Algorithm 2's unlocked emptiness pre-check, for
	// the double-checked-locking ablation.
	AlwaysLock bool
	// DrainBatch bounds how many tasks one queue-lock acquisition may
	// detach during Schedule. 0 or negative means the default (32); 1
	// degenerates to the seed's lock-per-task behaviour, kept reachable
	// for comparison. With AdaptiveDrain set this is the starting point
	// of each queue's controller rather than a fixed size.
	DrainBatch int
	// AdaptiveDrain replaces the fixed drain batch with a per-queue
	// feedback controller (internal/adapt): sustained draining by
	// latency-budgeted callers (ScheduleOne) halves a queue's batch
	// toward DrainMin, sustained more-than-a-batch backlog doubles it
	// toward DrainMax. Queues drained by throughput callers amortize
	// more tasks per lock acquisition; queues serving context-switch
	// keypoints keep their critical sections minimal.
	AdaptiveDrain bool
	// DrainMin is the adaptive controller's lower bound. Zero or
	// negative normalizes to the documented default 1.
	DrainMin int
	// DrainMax is the adaptive controller's upper bound. Zero, negative
	// or below DrainMin normalizes to the documented default
	// 8×DrainBatch (256 for the default batch).
	DrainMax int
	// Steal configures work stealing across sibling leaf queues (see
	// steal.go). The zero value disables stealing.
	Steal StealConfig
	// LatencyStats records per-CPU latency histograms (stats.Histogram)
	// of drain passes and steal attempts, read back via DrainLatency and
	// StealLatency. Off by default: the record path is cheap (one clock
	// read and one bucket increment per pass) but not free.
	LatencyStats bool
	// Trace attaches a flight recorder: task dispatches and successful
	// steals are recorded under the executing CPU's ring. Nil (the
	// default) leaves every hot-path hook as a single nil check — the
	// disabled path is guarded by the obs benchmark bar.
	Trace *trace.Recorder
	// Progress starts the engine's background progression context
	// (progress.go): one goroutine scheduling on CPU 1 (CPU 0 on a
	// one-CPU topology) and parking when a pass ran nothing. Without it,
	// tasks run only where someone calls Schedule — a waiter, or a
	// harness stepping a virtual clock itself. Close stops it.
	Progress bool
	// Clock returns the engine's time in nanoseconds: the one clock its
	// timers (SubmitAt) fire on and that the libraries built on it read
	// through Now. Default: the wall clock. A deterministic harness
	// passes a simulated fabric's virtual clock.
	Clock func() int64
}

// normalized returns the config with every out-of-range knob replaced
// by its documented default, so a zero or nonsense value misbehaves
// loudly in exactly one place (here) instead of silently downstream:
//
//   - DrainBatch ≤ 0 → 32 (defaultDrainBatch);
//   - DrainMin ≤ 0 → 1;
//   - DrainMax ≤ 0 or < DrainMin → max(8×DrainBatch, DrainMin);
//   - Steal.BatchFraction outside (0, 1] (NaN included) → 0.5, except
//     values above 1, which clamp to 1 (one full drain batch).
func (cfg Config) normalized() Config {
	if cfg.DrainBatch <= 0 {
		cfg.DrainBatch = defaultDrainBatch
	}
	if cfg.DrainMin <= 0 {
		cfg.DrainMin = 1
	}
	if cfg.DrainMax <= 0 || cfg.DrainMax < cfg.DrainMin {
		cfg.DrainMax = 8 * cfg.DrainBatch
		if cfg.DrainMax < cfg.DrainMin {
			cfg.DrainMax = cfg.DrainMin
		}
	}
	f := cfg.Steal.BatchFraction
	switch {
	case f > 1:
		cfg.Steal.BatchFraction = 1
	case !(f > 0): // catches zero, negatives and NaN
		cfg.Steal.BatchFraction = 0.5
	}
	return cfg
}

// StealPolicy selects how far an out-of-work CPU may reach when it
// steals tasks from other cores' leaf queues.
type StealPolicy int

const (
	// StealOff disables work stealing (the default): a CPU only ever
	// drains the queues on its own path to the root.
	StealOff StealPolicy = iota
	// StealSiblings lets a CPU steal only from leaf queues sharing its
	// immediate topology parent — the cores it shares a cache or chip
	// with, where migration costs one intra-domain cache transfer.
	StealSiblings
	// StealFullTree lets a CPU walk outward through every topology
	// level, stealing from the nearest backlogged leaf first and
	// crossing chip and NUMA boundaries only as a last resort.
	StealFullTree
)

// String returns the policy name.
func (p StealPolicy) String() string {
	switch p {
	case StealOff:
		return "off"
	case StealSiblings:
		return "siblings"
	case StealFullTree:
		return "full-tree"
	default:
		return "unknown"
	}
}

// StealConfig parameterizes work stealing.
type StealConfig struct {
	// Policy selects the steal reach (default StealOff).
	Policy StealPolicy
	// BatchFraction is the fraction of the engine's drain batch one
	// successful steal may detach from a victim, in (0, 1]. 0 means the
	// default 0.5 — a half-batch, so a thief relieves a backlogged
	// victim without emptying it and destroying the victim's own
	// locality. The result is clamped to at least one task.
	BatchFraction float64
	// Adaptive scales each thief's steal window by its observed
	// hit-rate (a per-CPU EWMA of whether a steal migrated anything):
	// a CPU whose steals keep coming back empty-handed — the victim's
	// visible backlog is pinned, or races keep losing it — shrinks its
	// window toward one task, so fruitless-steal-prone topologies stop
	// over-draining (and re-enqueueing) their victims' backlogs. A
	// thief whose steals land keeps the full BatchFraction window. The
	// estimate starts optimistic (full window) and recovers as soon as
	// steals succeed again.
	Adaptive bool
}

// defaultDrainBatch is the Schedule batch size when Config.DrainBatch is
// unset: large enough to amortize a lock round-trip over many tasks under
// load, small enough not to starve sibling cores of a busy queue.
const defaultDrainBatch = 32

// counterShard is one CPU's slice of the engine-wide execution-side
// counters, padded to a cache line so cores bumping their own shard
// never false-share. Executions are always counted on the shard of the
// executing CPU, which makes the per-shard execution count double as
// the ExecPerCPU stat. The submit-side counter has no shard at all:
// Stats derives it from the per-queue enqueue counters (see Stats), so
// Submit pays zero dedicated counter updates.
type counterShard struct {
	executions atomic.Uint64
	requeues   atomic.Uint64
	skips      atomic.Uint64
	// Steal instrumentation, counted on the thief's shard: drains
	// attempted on victim queues, attempts that migrated at least one
	// task, and stolen tasks executed here.
	stealAttempts atomic.Uint64
	stealHits     atomic.Uint64
	stealTasks    atomic.Uint64
	_             [spinlock.CacheLineSize - 48]byte
}

// paddedBool is an atomic.Bool on its own cache line; the per-CPU idle
// flags are written from every idle-hook transition, so neighbouring
// CPUs must not share a line.
type paddedBool struct {
	v atomic.Bool
	_ [spinlock.CacheLineSize - 1]byte
}

// Engine is the task manager. It owns one queue per topology node and
// serves Submit (place a task on the deepest covering queue) and Schedule
// (Algorithm 1: drain queues from the local core up to the global root).
//
// All methods are safe for concurrent use.
type Engine struct {
	cfg   Config
	topo  *topology.Topology
	batch int

	// queues[i] corresponds to topo.Nodes()[i] (minus skipped nodes in
	// single-global-queue mode).
	queues []*Queue
	// byID[n.ID] is the queue of topology node n — a dense array indexed
	// by Node.ID, replacing map hashing on the submit path.
	byID []*Queue
	// leaf[cpu] is the queue a task pinned to exactly {cpu} lands on: the
	// per-core leaf queue (the global queue in single-global-queue mode).
	// Together with byID this makes placement of the common case — a
	// single-CPU set, as SubmitToIdle always produces — zero tree walks
	// and zero map lookups.
	leaf []*Queue
	// rootQ is the global queue (empty CPU sets, uncoverable sets).
	rootQ *Queue
	// paths[cpu] is the queue scan order for that CPU: per-core first,
	// global last.
	paths [][]*Queue
	// stealGroups[cpu] holds the candidate victim leaf queues for that
	// CPU, grouped by topological distance (topology.StealOrder):
	// sibling cores first, then cousins, NUMA-remote cores last. The
	// StealSiblings policy restricts the walk to the first group.
	stealGroups [][][]*Queue
	// stealBatch is how many tasks one steal may detach from a victim
	// (Config.Steal.BatchFraction of the drain batch, default half).
	stealBatch int
	// stealRate tracks each thief CPU's steal hit-rate (Steal.Adaptive;
	// nil otherwise). Each shard is its CPU's private cache line, so
	// the feedback adds no cross-core traffic to the steal path.
	stealRate *adapt.Sharded

	idle []paddedBool

	// shards holds the engine-wide execution-side counters sharded per
	// CPU; each scheduling core only ever touches its own cache line.
	shards []counterShard

	// latShards holds per-CPU drain/steal latency histograms
	// (Config.LatencyStats; nil otherwise). Sharded like the counters so
	// the record path stays core-local; the small lock exists because the
	// engine allows concurrent Schedule calls on behalf of one CPU.
	latShards []latShard

	// rec is the optional flight recorder (Config.Trace). Hot paths
	// guard every use with a nil check so the disabled engine pays one
	// predictable branch, nothing more.
	rec *trace.Recorder

	// Parking (park.go): parked counts the schedulers blocked in park,
	// the one word every enqueue reads; parkMu guards the parked list
	// and the recycled parkers.
	parked   atomic.Int32
	parkMu   sync.Mutex
	parkers  []*parker
	parkFree []*parker

	// Time and progression (progress.go): the clock, the armed timers in
	// (due time, arming order) with the first one's due time mirrored in
	// nextDue (noTimer when none), and the progression context, whose
	// goroutine closes loopDone (nil without Config.Progress).
	clock    func() int64
	timerMu  sync.Mutex
	timers   []timer
	nextDue  atomic.Int64
	closed   atomic.Bool
	loopDone chan struct{}
}

// latShard is one CPU's latency instrumentation: histograms of how long
// its drain passes and steal attempts took, in nanoseconds.
type latShard struct {
	mu    spinlock.SpinLock
	drain stats.Histogram
	steal stats.Histogram
}

// record adds one sample to the shard's drain or steal histogram.
func (s *latShard) record(steal bool, d time.Duration) {
	s.mu.Lock()
	if steal {
		s.steal.Record(int64(d))
	} else {
		s.drain.Record(int64(d))
	}
	s.mu.Unlock()
}

// New builds an engine for the configured topology. Out-of-range
// batching and stealing knobs are normalized to their documented
// defaults first (see Config.normalized).
func New(cfg Config) *Engine {
	if cfg.Topology == nil {
		cfg.Topology = topology.Host()
	}
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().UnixNano() }
	}
	cfg = cfg.normalized()
	batch := cfg.DrainBatch
	e := &Engine{
		cfg:    cfg,
		topo:   cfg.Topology,
		batch:  batch,
		byID:   make([]*Queue, len(cfg.Topology.Nodes())),
		idle:   make([]paddedBool, cfg.Topology.NCPUs),
		shards: make([]counterShard, cfg.Topology.NCPUs),
		rec:    cfg.Trace,
		clock:  cfg.Clock,
	}
	e.nextDue.Store(noTimer)
	for _, n := range e.topo.Nodes() {
		if cfg.SingleGlobalQueue && n != e.topo.Root {
			continue
		}
		q := newQueue(n, cfg.QueueKind)
		q.ctrl.Init(batch, cfg.DrainMin, cfg.DrainMax)
		e.queues = append(e.queues, q)
		e.byID[n.ID] = q
	}
	if cfg.Steal.Adaptive && cfg.Steal.Policy != StealOff {
		// Primed optimistic: the first miss decays the rate gradually
		// (1 → 0.75 → …) instead of collapsing the window to one task.
		e.stealRate = adapt.NewSharded(cfg.Topology.NCPUs, 0)
		e.stealRate.Prime(1)
	}
	if cfg.LatencyStats {
		e.latShards = make([]latShard, cfg.Topology.NCPUs)
	}
	e.rootQ = e.byID[e.topo.Root.ID]
	e.leaf = make([]*Queue, e.topo.NCPUs)
	e.paths = make([][]*Queue, e.topo.NCPUs)
	for cpu := 0; cpu < e.topo.NCPUs; cpu++ {
		if cfg.SingleGlobalQueue {
			e.leaf[cpu] = e.rootQ
			e.paths[cpu] = []*Queue{e.rootQ}
			continue
		}
		e.leaf[cpu] = e.byID[e.topo.CoreNode(cpu).ID]
		for _, n := range e.topo.PathToRoot(cpu) {
			e.paths[cpu] = append(e.paths[cpu], e.byID[n.ID])
		}
	}
	e.initSteal()
	if cfg.Progress {
		e.loopDone = make(chan struct{})
		go e.background()
	}
	return e
}

// Topology returns the machine the engine is mapped onto.
func (e *Engine) Topology() *topology.Topology { return e.topo }

// Queues returns every queue, ordered like Topology().Nodes(). In
// single-global-queue mode there is exactly one.
func (e *Engine) Queues() []*Queue { return e.queues }

// QueueFor returns the queue a task with the given CPU set would be
// placed on. Single-CPU sets and the empty set — the two cases every
// SubmitToIdle produces — resolve through precomputed tables;
// FindCovering's tree walk is reserved for genuine multi-CPU sets.
func (e *Engine) QueueFor(cs cpuset.Set) *Queue {
	if cpu, ok := cs.Single(); ok && cpu < len(e.leaf) {
		return e.leaf[cpu]
	}
	return e.queueForSlow(cs)
}

// queueForSlow resolves placement for the empty set and multi-CPU sets.
func (e *Engine) queueForSlow(cs cpuset.Set) *Queue {
	if e.cfg.SingleGlobalQueue || cs.IsEmpty() {
		return e.rootQ
	}
	return e.byID[e.topo.FindCovering(cs).ID]
}

// submitPrep is the shared validation prologue of every submission
// entry point: reject nil bodies and transition StateFree →
// StateSubmitted, naming the calling operation in any error.
func submitPrep(t *Task, op string) error {
	if t.Fn == nil {
		return fmt.Errorf("core: %s of task with nil Fn", op)
	}
	if !t.state.CompareAndSwap(uint32(StateFree), uint32(StateSubmitted)) {
		return fmt.Errorf("core: %s of task in state %v", op, t.State())
	}
	return nil
}

// Submit places the task on the queue of the deepest topology node
// covering its CPU set (the global queue for the empty set). The task
// must be in StateFree and have a non-nil Fn.
func (e *Engine) Submit(t *Task) error {
	if err := submitPrep(t, "Submit"); err != nil {
		return err
	}
	// Placement, flattened from QueueFor so the pinned fast path — the
	// common case — costs one popcount check and one table load inside
	// this frame.
	var q *Queue
	if cpu, ok := t.CPUSet.Single(); ok && cpu < len(e.leaf) {
		q = e.leaf[cpu]
	} else {
		q = e.queueForSlow(t.CPUSet)
	}
	e.submitTo(t, q)
	return nil
}

// submitTo is the shared tail of every submission entry point: record
// the home queue and enqueue. The caller has already validated the task
// and transitioned it to StateSubmitted.
func (e *Engine) submitTo(t *Task, q *Queue) {
	if rec := e.rec; rec != nil {
		t.submitTS = rec.Now()
	}
	t.home = q
	q.enqueue(t)
	e.wakeParked()
}

// MustSubmit is Submit that panics on error, for call sites where a
// submission failure is a programming bug.
func (e *Engine) MustSubmit(t *Task) {
	if err := e.Submit(t); err != nil {
		panic(err)
	}
}

// SubmitToIdle implements NewMadeleine's request-submission policy
// (§IV-B): find the idle core nearest to home; if one exists, pin the
// task to it, otherwise place the task in the global queue so that the
// first core to become available picks it up.
func (e *Engine) SubmitToIdle(t *Task, home int) error {
	if cpu := e.FindIdleNear(home); cpu >= 0 {
		t.CPUSet = cpuset.New(cpu)
	} else {
		t.CPUSet = cpuset.Set{}
	}
	return e.Submit(t)
}

// SetIdle records whether a CPU is currently idle. The progression
// context marks its CPU idle around each park after a pass that ran
// nothing.
func (e *Engine) SetIdle(cpu int, idle bool) {
	if cpu >= 0 && cpu < len(e.idle) {
		e.idle[cpu].v.Store(idle)
	}
}

// IsIdle reports whether a CPU was last marked idle.
func (e *Engine) IsIdle(cpu int) bool {
	return cpu >= 0 && cpu < len(e.idle) && e.idle[cpu].v.Load()
}

// FindIdleNear returns the idle CPU topologically nearest to home
// (excluding home itself), or -1 when every other core is busy. Proximity
// is by walking up home's topology path, preferring cores that share the
// closest ancestor — minimizing cache effects, as §IV-B requires.
//
// Among equally-near idle CPUs the one with the fewest executions so far
// (the per-CPU sharded counters read for free) wins: placement feedback
// that spreads pinned submissions away from cores that have already
// absorbed the most work, instead of always re-picking the lowest CPU
// index.
func (e *Engine) FindIdleNear(home int) int {
	if home < 0 || home >= e.topo.NCPUs {
		home = 0
	}
	seen := cpuset.New(home)
	for _, node := range e.topo.PathToRoot(home) {
		found := -1
		var foundExec uint64
		node.CPUSet.ForEach(func(cpu int) bool {
			if !seen.IsSet(cpu) && e.idle[cpu].v.Load() {
				ex := e.shards[cpu].executions.Load()
				if found < 0 || ex < foundExec {
					found, foundExec = cpu, ex
				}
			}
			return true
		})
		if found >= 0 {
			return found
		}
		seen = cpuset.Or(seen, node.CPUSet)
	}
	return -1
}

// Schedule implements the paper's Algorithm 1 (Task_Schedule) for the
// given CPU: release the timers now due (SubmitAt) unless the
// progression context does, then scan the per-core queue first, then
// each ancestor queue up to the global queue, executing every task
// found. Repeat tasks whose body reports
// incompletion are re-enqueued on their home queue. Tasks whose CPU set
// excludes this CPU are put back and skipped.
//
// Each queue is drained at most its length-at-entry times per call so a
// persistent Repeat task cannot livelock the caller. Returns the number
// of task executions performed.
func (e *Engine) Schedule(cpu int) int {
	return e.schedule(cpu, -1)
}

// ScheduleOne executes at most one task on behalf of cpu, returning
// whether one ran. A caller that interleaves progression with its own
// work and wants each call short (examples/steal's workers) uses this
// entry point; under AdaptiveDrain it is the latency signal.
func (e *Engine) ScheduleOne(cpu int) bool {
	return e.schedule(cpu, 1) > 0
}

func (e *Engine) schedule(cpu int, max int) int {
	if cpu < 0 || cpu >= len(e.paths) {
		return 0
	}
	if e.nextDue.Load() != noTimer && !e.Progressing() {
		e.releaseDue()
	}
	ran := 0
	for _, q := range e.paths[cpu] {
		// Fast skip of empty queues keeps Algorithm 1's common case — a
		// scan over an idle hierarchy — free of calls and locks: one
		// atomic head load per queue. This skip IS Algorithm 2's
		// unlocked notempty() check, so the AlwaysLock ablation disables
		// it and pays a lock acquisition per queue to discover
		// emptiness, exactly the naive Get_Task the paper argues
		// against.
		if q.Empty() && !e.cfg.AlwaysLock {
			continue
		}
		budget := -1
		if max > 0 {
			budget = max - ran
		}
		if e.latShards != nil {
			start := time.Now()
			ran += e.drainQueue(q, cpu, budget)
			e.latShards[cpu].record(false, time.Since(start))
		} else {
			ran += e.drainQueue(q, cpu, budget)
		}
		if max > 0 && ran >= max {
			return ran
		}
	}
	// Only when the entire local path — leaf and every ancestor — yielded
	// nothing does the CPU reach outward and steal (steal.go). A CPU with
	// local work never pays the victim-selection walk.
	if ran == 0 && e.cfg.Steal.Policy != StealOff {
		if e.latShards != nil {
			start := time.Now()
			ran = e.steal(cpu, max)
			e.latShards[cpu].record(true, time.Since(start))
		} else {
			ran = e.steal(cpu, max)
		}
	}
	return ran
}

// rehomeChain accumulates CPU-set-mismatched tasks during a drain and
// re-enqueues each on the queue its CPU set maps to under
// deepest-covering placement — usually the queue it was drained from
// (tasks on ancestor queues are correctly placed by construction), in
// which case the whole batch still costs one chained append. When
// locality-first placement (SubmitLocal) parked a task somewhere its
// owner can never run it, any scan that touches it repairs the
// placement instead of bouncing it on the same unreachable queue.
// Task.home follows, so Repeat re-enqueues stay repaired.
type rehomeChain struct {
	e          *Engine
	head, tail *Task
	dest       *Queue
	n          int // tasks in the open chain
	total      int // tasks re-homed over the chain's lifetime
}

// add appends a mismatched task; consecutive same-destination tasks
// share one locked append.
func (c *rehomeChain) add(t *Task) {
	dest := c.e.QueueFor(t.CPUSet)
	t.home = dest
	if dest != c.dest {
		c.flush()
		c.dest = dest
	}
	if c.tail == nil {
		c.head = t
	} else {
		c.tail.next = t
	}
	c.tail = t
	c.n++
	c.total++
}

// flush re-enqueues the open chain, if any.
func (c *rehomeChain) flush() {
	if c.n > 0 {
		c.dest.enqueueChain(c.head, c.tail, c.n)
		c.e.wakeParked()
	}
	c.head, c.tail, c.n = nil, nil, 0
}

// drainQueue is the per-queue portion of Algorithm 1 with batched
// dequeue: tasks are detached drainBatch at a time under one lock
// acquisition, executed locally, and CPU-set mismatches are collected
// and re-homed with one locked append per destination run instead of
// one lock round-trip per task. budget < 0 means unbounded; otherwise
// at most budget tasks are executed (skips do not consume budget).
//
// The pass is bounded by the queue's length at entry: tasks re-enqueued
// during the scan (repeats, put-backs) are not reconsidered until the
// next call, so a persistent Repeat task cannot livelock the caller.
//
// Under Config.AdaptiveDrain the batch size is the queue's controller
// value instead of the engine constant, and the pass reports back: a
// budgeted drain that ran something is a latency signal, an unbudgeted
// drain that processed more than one full batch is a backlog signal.
func (e *Engine) drainQueue(q *Queue, cpu int, budget int) int {
	bound := q.Len()
	if bound == 0 {
		if !e.cfg.AlwaysLock {
			return 0
		}
		// Naive Get_Task: take the lock even to discover emptiness.
		bound = 1
	}
	batch := e.batch
	if e.cfg.AdaptiveDrain {
		batch = q.ctrl.Batch()
	}
	ran, processed := 0, 0
	pb := rehomeChain{e: e}
	for processed < bound {
		n := bound - processed
		if n > batch {
			n = batch
		}
		if budget >= 0 && n > budget-ran {
			// Never detach more runnable tasks than we may execute;
			// skipped tasks do not count, so the loop re-drains if the
			// whole batch turned out to be put-backs.
			n = budget - ran
		}
		head, got := q.drain(n, e.cfg.AlwaysLock)
		if got == 0 {
			break
		}
		processed += got
		for t := head; t != nil; {
			next := t.next
			t.next = nil
			if !t.CPUSet.IsEmpty() && !t.CPUSet.IsSet(cpu) {
				// Not allowed here (possible for ancestor queues holding
				// tasks whose CPU set is a strict subset): put it back.
				pb.add(t)
			} else {
				e.run(t, cpu)
				ran++
			}
			t = next
		}
		if budget >= 0 && ran >= budget {
			break
		}
	}
	pb.flush()
	if pb.total > 0 {
		e.shards[cpu].skips.Add(uint64(pb.total))
	}
	if e.cfg.AdaptiveDrain && ran > 0 {
		if budget >= 0 {
			q.ctrl.Latency()
		} else if processed > batch {
			q.ctrl.Backlog()
		}
	}
	return ran
}

// run executes one dequeued task on cpu and routes it to completion or
// re-enqueue.
func (e *Engine) run(t *Task, cpu int) {
	t.state.Store(uint32(StateRunning))
	t.lastCPU.Store(int64(cpu))
	runs := t.runs.Add(1)
	e.shards[cpu].executions.Add(1)
	if r := e.rec; r != nil {
		var wait uint64
		if t.submitTS != 0 {
			if now := r.Now(); now > t.submitTS {
				wait = uint64(now - t.submitTS)
			}
		}
		r.Record(cpu, trace.EvTaskRun, runs, wait)
	}
	done := t.Fn(t.Arg)
	if t.Options&Repeat != 0 && !done {
		t.state.Store(uint32(StateSubmitted))
		e.shards[cpu].requeues.Add(1)
		if r := e.rec; r != nil {
			// Restamp: the next EvTaskRun's wait starts at this requeue.
			t.submitTS = r.Now()
		}
		t.home.enqueue(t)
		e.wakeParked()
		return
	}
	t.markDone()
}

// WaitActive waits for t to complete while executing pending tasks on
// behalf of cpu — the paper's overlap mechanism: a thread blocked on
// communication turns its core into a task-processing core.
func (e *Engine) WaitActive(t *Task, cpu int) {
	for !t.Done() {
		if e.Schedule(cpu) == 0 {
			// Nothing runnable here; let other goroutines progress.
			yield()
		}
	}
}

// Pending returns the total number of tasks currently enqueued across
// all queues (approximate under concurrency).
func (e *Engine) Pending() int {
	n := 0
	for _, q := range e.queues {
		n += q.Len()
	}
	return n
}

// Stats is a snapshot of engine counters.
type Stats struct {
	Submitted  uint64   // Submit calls accepted
	Executions uint64   // task body invocations
	Requeues   uint64   // Repeat re-enqueues
	Skips      uint64   // dequeues put back due to CPU-set mismatch
	ExecPerCPU []uint64 // executions indexed by CPU

	// StealAttempts counts drains attempted on victim queues; StealHits
	// counts attempts that migrated at least one task; StealTasks counts
	// stolen tasks executed by a thief CPU (StealTasks ≤ Executions).
	StealAttempts uint64
	StealHits     uint64
	StealTasks    uint64
	// StealPerCPU is the stolen-task execution count indexed by the
	// *thief* CPU; its sum equals StealTasks.
	StealPerCPU []uint64

	// BatchGrows and BatchShrinks count adaptive drain-batch moves
	// across all queues: doublings under sustained backlog and halvings
	// under sustained latency-budgeted draining. Zero unless
	// Config.AdaptiveDrain is set.
	BatchGrows   uint64
	BatchShrinks uint64
}

// Stats returns a snapshot of the engine counters, aggregated across the
// per-CPU shards and per-queue counters.
//
// Submitted is derived rather than counted: every accepted Submit
// enqueues exactly once, and the only other enqueue sources are Repeat
// re-enqueues and CPU-set put-backs, so
//
//	Submitted = Σ Queue.Enqueues − Requeues − Skips.
//
// This keeps the submit hot path free of any dedicated counter update.
// Under concurrency the snapshot is approximate (counters are read
// independently), exactly like the seed's global counters were.
func (e *Engine) Stats() Stats {
	s := Stats{
		ExecPerCPU:  make([]uint64, len(e.shards)),
		StealPerCPU: make([]uint64, len(e.shards)),
	}
	for i := range e.shards {
		sh := &e.shards[i]
		ex := sh.executions.Load()
		s.Executions += ex
		s.ExecPerCPU[i] = ex
		s.Requeues += sh.requeues.Load()
		s.Skips += sh.skips.Load()
		st := sh.stealTasks.Load()
		s.StealTasks += st
		s.StealPerCPU[i] = st
		s.StealAttempts += sh.stealAttempts.Load()
		s.StealHits += sh.stealHits.Load()
	}
	enq := uint64(0)
	for _, q := range e.queues {
		enq += q.Enqueues()
		s.BatchGrows += q.ctrl.Grows()
		s.BatchShrinks += q.ctrl.Shrinks()
	}
	if total := s.Requeues + s.Skips; enq >= total {
		s.Submitted = enq - total
	}
	return s
}

// DrainLatency returns the merged drain-pass latency histogram across
// every CPU shard, in nanoseconds. Empty unless Config.LatencyStats.
func (e *Engine) DrainLatency() stats.Histogram { return e.mergeLatency(false) }

// StealLatency returns the merged steal-attempt latency histogram
// across every CPU shard, in nanoseconds. Empty unless
// Config.LatencyStats (and a steal policy is enabled).
func (e *Engine) StealLatency() stats.Histogram { return e.mergeLatency(true) }

func (e *Engine) mergeLatency(steal bool) stats.Histogram {
	var out stats.Histogram
	for i := range e.latShards {
		sh := &e.latShards[i]
		sh.mu.Lock()
		if steal {
			out.Merge(&sh.steal)
		} else {
			out.Merge(&sh.drain)
		}
		sh.mu.Unlock()
	}
	return out
}

// ResetStats zeroes the engine counters and every queue's
// instrumentation — spinlock, mutex and lock-free alike — so ablation
// runs start from clean counters. Tasks still queued at reset time stay
// schedulable and are accounted as if submitted after the reset
// (warmup-then-reset with a Repeat poll task in flight is the expected
// usage).
func (e *Engine) ResetStats() {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.executions.Store(0)
		sh.requeues.Store(0)
		sh.skips.Store(0)
		sh.stealAttempts.Store(0)
		sh.stealHits.Store(0)
		sh.stealTasks.Store(0)
	}
	for _, q := range e.queues {
		q.resetStats()
	}
	for i := range e.latShards {
		sh := &e.latShards[i]
		sh.mu.Lock()
		sh.drain.Reset()
		sh.steal.Reset()
		sh.mu.Unlock()
	}
}
