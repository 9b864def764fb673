package core

// Work stealing across sibling leaf queues.
//
// The queue hierarchy places every task on the deepest topology node
// covering its CPU set, so strictly-placed tasks are always reachable
// from the paths of the CPUs allowed to run them — stealing would never
// find anything. What makes stealing useful is *locality-first*
// placement: SubmitLocal parks an unconstrained task on the producing
// core's leaf queue so that, under normal load, it executes where its
// data is hot. When that core backs up while its siblings idle — the
// imbalance the hierarchy cannot absorb by itself — an out-of-work CPU
// walks outward (topology.StealOrder: siblings first, then cousins,
// NUMA-remote cores last) and migrates a half-batch from the most
// backlogged victim using the same Queue.drain critical section the
// local scan uses.
//
// Correctness is unchanged from the local path: a stolen task's CPU set
// is checked before execution exactly like a drained one's, and
// mismatches are re-homed — re-enqueued, via the chained put-back path,
// on the queue their CPU set actually maps to — so a pinned task can
// transit a thief but never execute outside its set.

import "pioman/internal/trace"

// initSteal precomputes the per-CPU victim order and the steal batch
// size. Called from New; cheap enough to do unconditionally so the
// policy can stay a pure runtime check.
func (e *Engine) initSteal() {
	e.stealBatch = max(1, e.batch/2)
	if e.cfg.SingleGlobalQueue {
		// One shared queue: everyone already drains everything.
		e.stealGroups = make([][][]*Queue, e.topo.NCPUs)
		return
	}
	e.stealGroups = make([][][]*Queue, e.topo.NCPUs)
	for cpu := 0; cpu < e.topo.NCPUs; cpu++ {
		for _, nodes := range e.topo.StealOrder(cpu) {
			group := make([]*Queue, 0, len(nodes))
			for _, n := range nodes {
				group = append(group, e.byID[n.ID])
			}
			e.stealGroups[cpu] = append(e.stealGroups[cpu], group)
		}
	}
}

// StealPolicy returns the engine's configured steal policy.
func (e *Engine) StealPolicy() StealPolicy { return e.cfg.Steal.Policy }

// SubmitLocal places the task on the per-core leaf queue of the home
// CPU regardless of how broad the task's CPU set is — locality-first
// placement, where Submit's deepest-covering rule is locality-exact.
// The intended pattern is an unconstrained task (empty CPU set)
// produced by code running on home: it should preferably execute there,
// cache-hot, but any CPU may legally run it. Without stealing only
// home's CPU scans that leaf queue, so the task waits behind home's
// backlog; with stealing enabled (Config.Steal) an out-of-work sibling
// migrates it. The CPU set is still enforced at execution time wherever
// the task ends up.
//
// If the task's CPU set excludes home entirely (a caller bug more than
// a use case), the first scan that touches the task — home's own, or a
// thief's — re-homes it onto the queue its CPU set maps to, so it is
// delayed, not stranded, even with stealing off.
func (e *Engine) SubmitLocal(t *Task, home int) error {
	if err := submitPrep(t, "SubmitLocal"); err != nil {
		return err
	}
	var q *Queue
	if home >= 0 && home < len(e.leaf) {
		q = e.leaf[home]
	} else {
		q = e.queueForSlow(t.CPUSet)
	}
	// Stealable: q is a victim leaf and a CPU other than its owner may
	// run the task — an empty CPU set, or any set but exactly {owner}.
	cpu, single := t.CPUSet.Single()
	e.submitTo(t, q, q.owner >= 0 && (!single || cpu != q.owner))
	return nil
}

// steal walks cpu's victim groups in topological-distance order and
// migrates work from the first group holding any. Within a group the
// most backlogged victim is tried first (queue length, with the
// victim's execution count as tiebreak — a core that has both a backlog
// and a history of executing the most is the overload the ExecPerCPU
// imbalance stat points at). Returns the number of stolen tasks
// executed; max has ScheduleOne semantics (max > 0 bounds executions).
func (e *Engine) steal(cpu int, max int) int {
	groups := e.stealGroups[cpu]
	if len(groups) == 0 {
		return 0
	}
	if e.cfg.Steal.Policy == StealSiblings {
		groups = groups[:1]
	}
	budget := -1
	if max > 0 {
		budget = max
	}
	for _, group := range groups {
		best := e.bestVictim(group)
		if best == nil {
			continue
		}
		if ran := e.stealFrom(best, cpu, budget); ran > 0 {
			return ran
		}
		// The best victim raced empty or its window held only tasks
		// this CPU may not run; sweep the rest of the group once before
		// widening the radius.
		for _, q := range group {
			if q == best || q.stealable.Load() == 0 {
				continue
			}
			if ran := e.stealFrom(q, cpu, budget); ran > 0 {
				return ran
			}
		}
	}
	return 0
}

// bestVictim returns the group's stealable queue with the largest
// backlog, preferring on ties the queue whose owning CPU has executed
// the most — the per-CPU execution shard is the load signal ExecPerCPU
// exposes, read here for one atomic load per candidate. Returns nil
// when no queue in the group is worth draining.
func (e *Engine) bestVictim(group []*Queue) *Queue {
	var best *Queue
	bestLen := 0
	var bestExec uint64
	for _, q := range group {
		// The exact stealable count, read before Len or the lock: a
		// backlog pinned to its owner is never locked, drained and
		// re-enqueued by a thief — lock traffic on exactly the queue
		// the hierarchy keeps quiet, and a FIFO rotation for nothing.
		if q.stealable.Load() == 0 {
			continue
		}
		l := q.Len()
		if l == 0 {
			continue
		}
		ex := e.shards[q.owner].executions.Load()
		if best == nil || l > bestLen || (l == bestLen && ex > bestExec) {
			best, bestLen, bestExec = q, l, ex
		}
	}
	return best
}

// stealFrom detaches up to stealBatch tasks from the victim in one
// drain critical section, executes the ones this CPU may run, and
// re-homes the rest: CPU-set mismatches are re-enqueued — with the same
// chained put-back used by the local drain path — on the queue their
// CPU set maps to under deepest-covering placement, which also repairs
// any stale locality-first placement. Returns the number of tasks
// executed.
//
// Under Steal.Adaptive the window is scaled by this thief's observed
// hit-rate before the budget clip: a CPU whose steals keep migrating
// nothing drains smaller and smaller windows (down to one task);
// success restores the full window within a few hits.
func (e *Engine) stealFrom(q *Queue, cpu int, budget int) int {
	want := e.stealBatch
	if e.stealRate != nil {
		if r, ok := e.stealRate.Shard(cpu); ok {
			want = max(int(r*float64(e.stealBatch)+0.5), 1)
		}
	}
	if budget >= 0 && want > budget {
		want = budget
	}
	sh := &e.shards[cpu]
	sh.stealAttempts.Add(1)
	head, got, _ := q.drain(want, false)
	if got == 0 {
		return 0
	}
	pb := placeChain{e: e}
	ran, _ := e.runChain(head, cpu, &pb)
	pb.flush()
	if pb.total > 0 {
		sh.skips.Add(uint64(pb.total))
	}
	if e.stealRate != nil {
		// One sample per steal that saw tasks: 1 when something
		// migrated, 0 when the whole window was unrunnable here.
		hit := 0.0
		if ran > 0 {
			hit = 1
		}
		e.stealRate.Observe(cpu, hit)
	}
	if ran > 0 {
		sh.stealHits.Add(1)
		sh.stealTasks.Add(uint64(ran))
		if r := e.rec; r != nil {
			r.Record(cpu, trace.EvTaskSteal, uint64(q.owner), uint64(ran))
		}
	}
	return ran
}
