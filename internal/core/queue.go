package core

import (
	"sync"
	"sync/atomic"

	"pioman/internal/adapt"
	"pioman/internal/spinlock"
	"pioman/internal/topology"
)

// QueueKind selects how a task queue is protected against concurrent
// access — the ablation axis of §IV-A (spinlocks chosen because critical
// sections are shorter than a context switch) and §VI (lock-free as
// future work).
type QueueKind int

const (
	// QueueSpinlock protects the intrusive task list with a
	// test-and-test-and-set spinlock. This is the paper's implementation.
	QueueSpinlock QueueKind = iota
	// QueueMutex uses sync.Mutex — the "classical mutex" the paper warns
	// risks costly context switches.
	QueueMutex
	// QueueLockFree uses a Michael-Scott lock-free queue backed by a slab
	// node allocator — the paper's future-work direction.
	QueueLockFree
)

// String returns the kind name.
func (k QueueKind) String() string {
	switch k {
	case QueueSpinlock:
		return "spinlock"
	case QueueMutex:
		return "mutex"
	case QueueLockFree:
		return "lockfree"
	default:
		return "unknown"
	}
}

// Queue is one task list bound to a topology node. It is multi-producer,
// multi-consumer: any core may submit, any core whose CPU lies below the
// node may drain it.
//
// The layout and the accounting are both contention-aware:
//
//   - The lock word and list tail (producer side), the head pointer
//     (read unlocked by every Algorithm 2 emptiness precheck), the
//     producer counter and the consumer counters each sit on their own
//     cache line, so cores in different roles never false-share.
//   - The hot paths carry no dedicated instrumentation updates: length
//     is derived as enqueues−dequeues, and lock acquisitions are derived
//     in LockStats from the operation counters (every locked operation
//     acquires exactly once), so enqueue pays a single counter add and
//     drain amortizes its adds over the whole batch, after unlocking.
//   - Every locked section is O(1) in the queue's length (see drain).
type Queue struct {
	node *topology.Node
	kind QueueKind

	// Lock-free variant (nil otherwise).
	lf *spinlock.MSQueue[*Task]

	_ spinlock.CacheLinePad
	// Producer line: the lock, the list tail, the exact count and the
	// enqueue counter are all written while enqueueing, so they share one
	// cache line — a submitting core touches exactly this line plus the
	// task. (Algorithm 2's critical section is guarded by spin or mutex.)
	spin     spinlock.SpinLock
	tail     *Task
	count    int           // list length, under the lock (locked kinds only)
	enqueues atomic.Uint64 // tasks enqueued (all paths)
	mutex    sync.Mutex

	_ spinlock.CacheLinePad
	// head is written only while holding the lock but read without it by
	// Empty — the first, unlocked check of Algorithm 2 — so empty-queue
	// scans touch one immutable-for-them cache line and no lock.
	head atomic.Pointer[Task]

	_           spinlock.CacheLinePad
	dequeues    atomic.Uint64 // tasks detached by drains
	drains      atomic.Uint64 // drain ops that detached ≥ 1 task
	emptyDrains atomic.Uint64 // locked drain ops that found nothing
	chainOps    atomic.Uint64 // enqueueChain ops (one lock each)
	chainTasks  atomic.Uint64 // tasks appended by enqueueChain
	contended   atomic.Uint64 // lock acquisitions that had to wait
	_           spinlock.CacheLinePad

	// stealable counts the queued tasks some CPU other than owner may
	// run (Task.stealable), the word thieves read first (bestVictim).
	// Enqueues add before the tasks are visible and drains subtract
	// after detaching: never below the truth, exact at quiescence. A
	// backlog pinned to the owner never writes this line.
	stealable atomic.Int64
	// owner is the CPU of a victim leaf — a Core node of an engine that
	// steals — and -1 on every other queue, which counts nothing.
	owner int
	_     spinlock.CacheLinePad

	// ctrl is the queue's adaptive drain-batch controller, consulted by
	// drains only under Config.AdaptiveDrain. It sits on its own cache
	// line: the consumer that adjusts it must not invalidate the
	// producer or head lines.
	ctrl adapt.BatchController
	_    spinlock.CacheLinePad
}

func newQueue(node *topology.Node, kind QueueKind, steals bool) *Queue {
	q := &Queue{node: node, kind: kind, owner: -1}
	if steals && node.Kind == topology.Core {
		q.owner = node.Index
	}
	if kind == QueueLockFree {
		q.lf = spinlock.NewMSQueue[*Task]()
	}
	return q
}

// Node returns the topology node this queue is attached to.
func (q *Queue) Node() *topology.Node { return q.node }

// Len returns the approximate queue length, derived from the enqueue and
// dequeue totals. Exact when the queue is quiescent; transiently off by
// the number of in-flight operations under concurrency (as the seed's
// dedicated size counter also was).
func (q *Queue) Len() int {
	if q.kind == QueueLockFree {
		return q.lf.Len()
	}
	n := int64(q.enqueues.Load()) - int64(q.dequeues.Load())
	if n < 0 {
		return 0
	}
	return int(n)
}

// Empty reports whether the queue appears empty without taking the lock —
// the first, unlocked check of Algorithm 2. For the locked variants this
// is a single atomic pointer load.
func (q *Queue) Empty() bool {
	if q.kind == QueueLockFree {
		return q.lf.Empty()
	}
	return q.head.Load() == nil
}

// Enqueues returns the total number of tasks enqueued (including Repeat
// re-enqueues and CPU-set put-backs).
func (q *Queue) Enqueues() uint64 { return q.enqueues.Load() }

// LockStats returns (acquisitions, contended acquisitions) for the
// spinlock and mutex variants; zeros for the lock-free variant (its
// contention analogue is the CAS retry count of spinlock.MSQueue).
//
// Acquisitions are derived from the operation counters rather than
// counted on the hot path: every single enqueue, every chain append and
// every locked drain acquires the lock exactly once, so
//
//	acquires = (enqueues − chainTasks) + chainOps + drains + emptyDrains.
//
// The figure is exact at quiescence and approximate mid-operation.
func (q *Queue) LockStats() (acquires, contended uint64) {
	if q.kind == QueueLockFree {
		return 0, 0
	}
	acquires = q.enqueues.Load() - q.chainTasks.Load() +
		q.chainOps.Load() + q.drains.Load() + q.emptyDrains.Load()
	return acquires, q.contended.Load()
}

// DrainStats returns the number of batched detach operations and the
// total number of tasks they removed. drained/drains is the average
// batch size — the factor by which batching divides per-task lock
// acquisitions on the consumer side.
func (q *Queue) DrainStats() (drains, drained uint64) {
	return q.drains.Load(), q.dequeues.Load()
}

// DrainBatchNow returns the queue's current adaptive drain-batch size
// — the value the next unbudgeted drain will use when the engine runs
// with Config.AdaptiveDrain (the fixed engine batch applies
// otherwise).
func (q *Queue) DrainBatchNow() int { return q.ctrl.Batch() }

// resetStats zeroes every per-queue instrumentation counter, whatever
// the protection variant. Because Len is derived as enqueues−dequeues,
// the difference is preserved across the reset: tasks still queued when
// stats are reset remain schedulable (they re-enter the accounting as
// if freshly submitted). At quiescence both counters simply become 0.
// Counters read concurrently with a reset are approximate, as with the
// seed's global counters.
func (q *Queue) resetStats() {
	pending := int64(q.enqueues.Load()) - int64(q.dequeues.Load())
	if pending < 0 {
		pending = 0
	}
	q.enqueues.Store(uint64(pending))
	q.dequeues.Store(0)
	q.drains.Store(0)
	q.emptyDrains.Store(0)
	q.chainOps.Store(0)
	q.chainTasks.Store(0)
	q.contended.Store(0)
	q.ctrl.ResetCounters()
	if q.lf != nil {
		q.lf.ResetStats()
	}
}

// lock acquires the queue's lock, counting contended acquisitions.
// Total acquisitions are derived in LockStats, so the uncontended path
// is one TryLock and nothing else; the contended paths are outlined to
// keep lock inlinable into the enqueue/drain hot paths.
func (q *Queue) lock() {
	if q.kind == QueueMutex {
		q.lockMutex()
		return
	}
	if !q.spin.TryLock() {
		q.lockSpinSlow()
	}
}

func (q *Queue) lockSpinSlow() {
	q.contended.Add(1)
	q.spin.Lock()
}

func (q *Queue) lockMutex() {
	if !q.mutex.TryLock() {
		q.contended.Add(1)
		q.mutex.Lock()
	}
}

func (q *Queue) unlock() {
	if q.kind == QueueMutex {
		q.mutex.Unlock()
		return
	}
	// Lock/unlock pairing is structural in this file; skip Unlock's
	// double-unlock CAS guard.
	q.spin.ReleaseUnchecked()
}

// enqueue appends t to the queue. The spinlock variant — the paper's
// configuration and the submit hot path — is laid out flat here so the
// whole operation is one call frame: counter add, try-lock, three plain
// stores, release store. The ablation variants are outlined.
func (q *Queue) enqueue(t *Task) {
	q.enqueues.Add(1)
	if t.stealable {
		q.stealable.Add(1)
	}
	if q.kind != QueueSpinlock {
		q.enqueueSlow(t)
		return
	}
	if !q.spin.TryLock() {
		q.lockSpinSlow()
	}
	t.next = nil
	if q.tail == nil {
		q.head.Store(t)
	} else {
		q.tail.next = t
	}
	q.tail = t
	q.count++
	q.spin.ReleaseUnchecked()
}

// enqueueSlow appends t for the mutex and lock-free variants.
func (q *Queue) enqueueSlow(t *Task) {
	if q.kind == QueueLockFree {
		q.lf.Enqueue(t)
		return
	}
	q.lock()
	t.next = nil
	if q.tail == nil {
		q.head.Store(t)
	} else {
		q.tail.next = t
	}
	q.tail = t
	q.count++
	q.unlock()
}

// enqueueChain appends a chain of n tasks (linked through Task.next,
// nil-terminated at tail) under a single lock acquisition. The engine
// uses it to put back a batch of CPU-set-mismatched tasks without
// paying one lock round-trip per task. Chains are placed by
// deepest-covering placement, so none of their tasks is stealable.
func (q *Queue) enqueueChain(head, tail *Task, n int) {
	if n <= 0 {
		return
	}
	q.enqueues.Add(uint64(n))
	if q.kind == QueueLockFree {
		for t := head; t != nil; {
			next := t.next
			t.next = nil
			q.lf.Enqueue(t)
			t = next
		}
		return
	}
	q.chainOps.Add(1)
	q.chainTasks.Add(uint64(n))
	q.lock()
	tail.next = nil
	if q.tail == nil {
		q.head.Store(head)
	} else {
		q.tail.next = head
	}
	q.tail = tail
	q.count += n
	q.unlock()
}

// drain implements the batched generalisation of the paper's Algorithm 2
// (Get_Task): evaluate the queue without holding the lock to avoid
// needless contention; only when it appears non-empty, acquire the lock,
// re-check, and detach up to max tasks in that single critical section.
// It returns the head of the detached chain (linked through Task.next),
// its length, and how many tasks the queue held beyond it at the locked
// look; (nil, 0, 0) when the queue is (or appears) empty.
//
// At most max queued tasks: the critical section clears head and tail,
// touching no task (the producer core wrote them last); a longer backlog
// is walked to the cut. Counter adds and, at a non-zero count (a task
// counts before its enqueue), a leaf's stealable recount follow unlocking.
//
// alwaysLock skips the unlocked emptiness precheck, for the Algorithm 2
// ablation.
func (q *Queue) drain(max int, alwaysLock bool) (head *Task, n, left int) {
	if max <= 0 {
		return nil, 0, 0
	}
	if q.kind == QueueLockFree {
		var tail *Task
		for n < max {
			t, ok := q.lf.Dequeue()
			if !ok {
				break
			}
			t.next = nil
			if tail == nil {
				head = t
			} else {
				tail.next = t
			}
			tail = t
			n++
		}
		left = q.lf.Len()
	} else {
		if !alwaysLock && q.head.Load() == nil { // unlocked notempty() check
			return nil, 0, 0
		}
		q.lock()
		if head = q.head.Load(); head == nil { // locked re-check: a racing drain won
			q.unlock()
			q.emptyDrains.Add(1)
			return nil, 0, 0
		}
		n = q.count
		if n <= max {
			q.head.Store(nil)
			q.tail = nil
		} else {
			last := head
			for i := 1; i < max; i++ {
				last = last.next
			}
			q.head.Store(last.next)
			last.next = nil
			n = max
		}
		q.count -= n
		left = q.count
		q.unlock()
	}
	if n == 0 {
		return nil, 0, left
	}
	q.dequeues.Add(uint64(n))
	q.drains.Add(1)
	if q.owner >= 0 && q.stealable.Load() > 0 {
		stealable := 0
		for t := head; t != nil; t = t.next {
			if t.stealable {
				stealable++
			}
		}
		if stealable > 0 {
			q.stealable.Add(-int64(stealable))
		}
	}
	return head, n, left
}
