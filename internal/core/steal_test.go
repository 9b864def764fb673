package core

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pioman/internal/cpuset"
	"pioman/internal/topology"
)

// Tests for work stealing: policy reach, victim ordering, re-homing of
// CPU-set mismatches, steal statistics, and cross-CPU correctness under
// race. Borderline (8 CPUs, 4 NUMA nodes of 2 cores) gives the smallest
// interesting sibling/cousin structure: CPU 0's sibling is CPU 1, CPUs
// 2-7 are NUMA-remote.

func stealEngine(policy StealPolicy) *Engine {
	return New(Config{
		Topology: topology.Borderline(),
		Steal:    StealConfig{Policy: policy},
	})
}

// anyTask returns an unconstrained task counting its executions.
func anyTask(ran *atomic.Int64) *Task {
	return &Task{Fn: func(any) bool {
		if ran != nil {
			ran.Add(1)
		}
		return true
	}}
}

func TestSubmitLocalPlacesOnLeaf(t *testing.T) {
	e := stealEngine(StealOff)
	task := anyTask(nil)
	if err := e.SubmitLocal(task, 3); err != nil {
		t.Fatal(err)
	}
	if task.home != e.QueueFor(cpuset.New(3)) {
		t.Errorf("SubmitLocal placed on %v, want CPU 3's leaf", task.home.Node())
	}
	// The home CPU runs it like any local task.
	if n := e.Schedule(3); n != 1 {
		t.Fatalf("Schedule(3) ran %d, want 1", n)
	}
	if task.LastCPU() != 3 {
		t.Errorf("LastCPU = %d, want 3", task.LastCPU())
	}

	// Out-of-range home falls back to covering placement (global queue
	// for an unconstrained task).
	far := anyTask(nil)
	if err := e.SubmitLocal(far, 99); err != nil {
		t.Fatal(err)
	}
	if far.home.Node() != e.Topology().Root {
		t.Errorf("SubmitLocal(99) placed on %v, want root", far.home.Node())
	}
	e.Schedule(0)
}

func TestSubmitLocalErrors(t *testing.T) {
	e := stealEngine(StealOff)
	if err := e.SubmitLocal(&Task{}, 0); err == nil {
		t.Error("SubmitLocal with nil Fn should fail")
	}
	task := anyTask(nil)
	if err := e.SubmitLocal(task, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitLocal(task, 0); err == nil {
		t.Error("double SubmitLocal should fail")
	}
	e.Schedule(0)
}

// TestStealOffNeverReaches: with the default policy a foreign leaf's
// backlog is invisible to other CPUs.
func TestStealOffNeverReaches(t *testing.T) {
	e := stealEngine(StealOff)
	var ran atomic.Int64
	for i := 0; i < 4; i++ {
		if err := e.SubmitLocal(anyTask(&ran), 0); err != nil {
			t.Fatal(err)
		}
	}
	for cpu := 1; cpu < 8; cpu++ {
		if n := e.Schedule(cpu); n != 0 {
			t.Fatalf("Schedule(%d) ran %d with stealing off", cpu, n)
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran without their home CPU", ran.Load())
	}
	if s := e.Stats(); s.StealAttempts != 0 || s.StealTasks != 0 {
		t.Errorf("steal stats %+v with stealing off", s)
	}
	if n := e.Schedule(0); n != 4 {
		t.Errorf("home CPU ran %d, want 4", n)
	}
}

// TestStealSiblingsReach: the siblings policy lets the same-chip core
// steal but keeps NUMA-remote cores out.
func TestStealSiblingsReach(t *testing.T) {
	e := stealEngine(StealSiblings)
	var ran atomic.Int64
	for i := 0; i < 4; i++ {
		if err := e.SubmitLocal(anyTask(&ran), 0); err != nil {
			t.Fatal(err)
		}
	}
	// NUMA-remote CPUs must not reach CPU 0's leaf under siblings-only.
	for cpu := 2; cpu < 8; cpu++ {
		if n := e.Schedule(cpu); n != 0 {
			t.Fatalf("remote CPU %d stole %d tasks under siblings-only", cpu, n)
		}
	}
	// The sibling (CPU 1 shares CPU 0's NUMA node) steals everything:
	// the 4-task backlog fits one half-batch of the default 32.
	if n := e.Schedule(1); n != 4 {
		t.Fatalf("sibling stole %d tasks, want 4", n)
	}
	s := e.Stats()
	if s.StealTasks != 4 || s.StealHits != 1 {
		t.Errorf("StealTasks/Hits = %d/%d, want 4/1", s.StealTasks, s.StealHits)
	}
	if s.StealPerCPU[1] != 4 {
		t.Errorf("StealPerCPU[1] = %d, want 4", s.StealPerCPU[1])
	}
}

// TestStealFullTreeReach: full-tree lets a NUMA-remote core steal, and
// the victim's sibling is preferred over remote thieves' own groups.
func TestStealFullTreeReach(t *testing.T) {
	e := stealEngine(StealFullTree)
	var ran atomic.Int64
	for i := 0; i < 4; i++ {
		if err := e.SubmitLocal(anyTask(&ran), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Schedule(7); n != 4 {
		t.Fatalf("remote CPU 7 stole %d tasks, want 4", n)
	}
	if ran.Load() != 4 {
		t.Fatalf("ran = %d, want 4", ran.Load())
	}
}

// TestStealBatchBounded: one steal detaches at most half the drain
// batch, leaving the rest with the victim.
func TestStealBatchBounded(t *testing.T) {
	e := New(Config{
		Topology: topology.Borderline(),
		Steal:    StealConfig{Policy: StealFullTree},
	})
	const backlog = 64
	for i := 0; i < backlog; i++ {
		if err := e.SubmitLocal(anyTask(nil), 0); err != nil {
			t.Fatal(err)
		}
	}
	// 32 / 2 = 16 tasks per steal; Schedule steals once per call
	// because the first successful group attempt satisfies the pass.
	if n := e.Schedule(1); n != 16 {
		t.Fatalf("first steal migrated %d tasks, want 16", n)
	}
	if got := e.QueueFor(cpuset.New(0)).Len(); got != backlog-16 {
		t.Errorf("victim backlog = %d, want %d", got, backlog-16)
	}
}

// TestStealRehomesMismatch: a pinned task parked on the wrong leaf by
// SubmitLocal transits a thief and is re-homed onto the queue its CPU
// set maps to, where an allowed CPU then finds it — the thief itself
// never executes it.
func TestStealRehomesMismatch(t *testing.T) {
	e := stealEngine(StealFullTree)
	task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(4, 5)}
	// Misplaced: CPUs 4-5 may run it, but it sits on CPU 0's leaf where
	// only CPU 0 (never allowed) or a thief will see it.
	if err := e.SubmitLocal(task, 0); err != nil {
		t.Fatal(err)
	}
	if n := e.Schedule(1); n != 0 {
		t.Fatalf("thief executed %d tasks it may not run", n)
	}
	if task.Done() {
		t.Fatal("task ran on a disallowed CPU")
	}
	// Re-homed to the NUMA node covering {4,5}: now on CPU 4's path.
	want := e.QueueFor(cpuset.New(4, 5))
	if task.home != want {
		t.Errorf("re-homed to %v, want %v", task.home.Node(), want.Node())
	}
	if n := e.Schedule(4); n != 1 {
		t.Fatalf("allowed CPU ran %d, want 1", n)
	}
	if got := task.LastCPU(); got != 4 {
		t.Errorf("LastCPU = %d, want 4", got)
	}
	s := e.Stats()
	if s.Skips != 1 {
		t.Errorf("Skips = %d, want 1 (the re-home)", s.Skips)
	}
	if s.StealTasks != 0 {
		t.Errorf("StealTasks = %d, want 0 (re-homes are not migrations)", s.StealTasks)
	}
}

// TestSubmitLocalMisplacedPinnedRecovers: a pinned task parked on a
// leaf its owner can never run is repaired by the owner's own scan —
// no thieves required — instead of bouncing forever on an unreachable
// queue.
func TestSubmitLocalMisplacedPinnedRecovers(t *testing.T) {
	e := stealEngine(StealOff)
	task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(5)}
	if err := e.SubmitLocal(task, 0); err != nil {
		t.Fatal(err)
	}
	// CPU 0 cannot run it, but its scan re-homes it onto CPU 5's leaf.
	if n := e.Schedule(0); n != 0 {
		t.Fatalf("Schedule(0) ran %d, want 0", n)
	}
	if task.home != e.QueueFor(cpuset.New(5)) {
		t.Errorf("task re-homed to %v, want CPU 5's leaf", task.home.Node())
	}
	if n := e.Schedule(0); n != 0 {
		t.Fatal("task still visible to CPU 0 after re-home")
	}
	if got := e.Stats().Skips; got != 1 {
		t.Errorf("Skips = %d, want 1 (no repeated bouncing)", got)
	}
	if n := e.Schedule(5); n != 1 {
		t.Fatalf("Schedule(5) ran %d, want 1", n)
	}
}

// TestPinnedBacklogNeverLockedByThief: a victim whose backlog is
// entirely pinned to its owner holds nothing a thief may run, and its
// stealable count says so exactly: over many thief keypoints it takes
// zero steal attempts, zero lock acquisitions and zero dequeues. A fresh
// unconstrained task parked there is stolen on the very next pass.
func TestPinnedBacklogNeverLockedByThief(t *testing.T) {
	for _, kind := range []QueueKind{QueueSpinlock, QueueMutex, QueueLockFree} {
		t.Run(kind.String(), func(t *testing.T) {
			e := New(Config{
				Topology:  topology.Borderline(),
				QueueKind: kind,
				Steal:     StealConfig{Policy: StealFullTree},
			})
			const pinned = 6
			for i := 0; i < pinned; i++ {
				task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
				if err := e.SubmitLocal(task, 0); err != nil {
					t.Fatal(err)
				}
			}
			victim := e.QueueFor(cpuset.New(0))
			acq, _ := victim.LockStats()
			for i := 0; i < 100; i++ {
				if n := e.Schedule(1); n != 0 {
					t.Fatalf("thief ran %d pinned tasks", n)
				}
				e.ScheduleOne(7)
			}
			if got := e.Stats().StealAttempts; got != 0 {
				t.Errorf("StealAttempts = %d on a pinned backlog, want 0", got)
			}
			if got, _ := victim.LockStats(); got != acq {
				t.Errorf("victim lock acquisitions %d → %d, want untouched", acq, got)
			}
			if got := victim.Dequeues(); got != 0 {
				t.Errorf("victim dequeues = %d, want 0", got)
			}
			fresh := anyTask(nil)
			if err := e.SubmitLocal(fresh, 0); err != nil {
				t.Fatal(err)
			}
			if n := e.Schedule(1); n != 1 || !fresh.Done() {
				t.Fatalf("thief ran %d after a fresh unconstrained enqueue (done %v), want 1",
					n, fresh.Done())
			}
			// The pinned backlog is untouched and still runs at home.
			for e.Schedule(0) > 0 {
			}
			if got := e.Stats().Executions; got != pinned+1 {
				t.Errorf("Executions = %d, want %d", got, pinned+1)
			}
			if got := victim.stealable.Load(); got != 0 {
				t.Errorf("stealable count = %d on an empty victim, want 0", got)
			}
		})
	}
}

// TestBudgetClippedStealKeepsVictimStealable: a ScheduleOne steal that
// draws the pinned head of a victim puts it back without losing sight of
// the stealable tasks behind it; once those are stolen the pinned task
// left behind takes no further steal attempts.
func TestBudgetClippedStealKeepsVictimStealable(t *testing.T) {
	e := stealEngine(StealFullTree)
	// Pinned head, stealable tail — all shallower than one steal batch.
	pinned := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
	if err := e.SubmitLocal(pinned, 0); err != nil {
		t.Fatal(err)
	}
	const free = 5
	var ran atomic.Int64
	for i := 0; i < free; i++ {
		if err := e.SubmitLocal(anyTask(&ran), 0); err != nil {
			t.Fatal(err)
		}
	}
	// First keypoint draws the pinned head: nothing runnable.
	if e.ScheduleOne(1) {
		t.Fatal("thief ran the pinned head")
	}
	// Subsequent keypoints must still steal the tail.
	for i := 0; i < free; i++ {
		if !e.ScheduleOne(1) {
			t.Fatalf("keypoint %d stole nothing; the stealable tail was lost", i)
		}
	}
	if got := ran.Load(); got != free {
		t.Errorf("stole %d unconstrained tasks, want %d", got, free)
	}
	attempts := e.Stats().StealAttempts
	for i := 0; i < 10; i++ {
		e.ScheduleOne(1)
	}
	if got := e.Stats().StealAttempts; got != attempts {
		t.Errorf("StealAttempts %d → %d against the pinned leftover, want unchanged", attempts, got)
	}
	e.Schedule(0)
	if !pinned.Done() {
		t.Error("pinned task lost")
	}
}

// TestRepeatCannotStarveStealableWork: a persistent Repeat task on the
// thief's own path runs on every pass, but a pass whose executions were
// all Repeat retries still counts as idle for stealing, so an
// unconstrained task parked on a sibling's leaf is migrated instead of
// waiting forever.
func TestRepeatCannotStarveStealableWork(t *testing.T) {
	e := stealEngine(StealFullTree)
	var polls atomic.Int64
	poll := &Task{Fn: func(any) bool { polls.Add(1); return false }, Options: Repeat}
	e.MustSubmit(poll) // empty CPU set: the root queue, on every path
	parked := anyTask(nil)
	if err := e.SubmitLocal(parked, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000 && !parked.Done(); i++ {
		e.Schedule(0)
	}
	if !parked.Done() {
		t.Fatalf("stealable task never ran behind a persistent Repeat (%d polls)", polls.Load())
	}
	if got := parked.LastCPU(); got != 0 {
		t.Errorf("parked task ran on CPU %d, want the thief 0", got)
	}
	// The return value still counts the Repeat's retry: a waiter's
	// spin-then-park loop sees the pass as busy, as before.
	if n := e.Schedule(0); n != 1 {
		t.Errorf("Schedule(0) = %d with only the Repeat queued, want 1", n)
	}
}

// TestFullWindowOfPinnedDoesNotHideDeeperWork: a steal window that
// fills completely with pinned tasks puts them back, and the victim's
// stealable count still points the next pass at the tasks queued behind
// them.
func TestFullWindowOfPinnedDoesNotHideDeeperWork(t *testing.T) {
	e := stealEngine(StealFullTree)
	// Exactly one full steal window (stealBatch = 16) of pinned tasks
	// in front of a stealable tail.
	for i := 0; i < 16; i++ {
		task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
		if err := e.SubmitLocal(task, 0); err != nil {
			t.Fatal(err)
		}
	}
	var stolen atomic.Int64
	const free = 16
	for i := 0; i < free; i++ {
		if err := e.SubmitLocal(anyTask(&stolen), 0); err != nil {
			t.Fatal(err)
		}
	}
	// First steal drains the full pinned window: no migration.
	if n := e.Schedule(1); n != 0 {
		t.Fatalf("thief ran %d pinned tasks", n)
	}
	// The stealable tail is now at the head; the next pass must get it.
	if n := e.Schedule(1); n != free {
		t.Fatalf("second pass stole %d, want %d (stealable tail hidden)", n, free)
	}
	if got := stolen.Load(); got != free {
		t.Errorf("stolen = %d, want %d", got, free)
	}
	for e.Schedule(0) > 0 {
	}
	if got := e.Stats().Executions; got != 32 {
		t.Errorf("Executions = %d, want 32", got)
	}
}

// TestStealBatchFractionClamped: the half-batch steal fraction clamps
// up to one task, so an engine draining one task per lock acquisition
// still steals.
func TestStealBatchFractionClamped(t *testing.T) {
	e := New(Config{
		Topology:   topology.Borderline(),
		DrainBatch: 1,
		Steal:      StealConfig{Policy: StealFullTree},
	})
	const backlog = 64
	for i := 0; i < backlog; i++ {
		if err := e.SubmitLocal(anyTask(nil), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Schedule(1); n != 1 {
		t.Fatalf("steal migrated %d tasks, want the one-task clamp", n)
	}
}

// TestStealPrefersBackloggedVictim: with two candidate victims at equal
// distance, the thief picks the longer queue.
func TestStealPrefersBackloggedVictim(t *testing.T) {
	// Kwak: CPUs 0-3 share a chip, so CPU 3 has three siblings.
	e := New(Config{Topology: topology.Kwak(), Steal: StealConfig{Policy: StealSiblings}})
	for i := 0; i < 2; i++ {
		if err := e.SubmitLocal(anyTask(nil), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := e.SubmitLocal(anyTask(nil), 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Schedule(3); n != 10 {
		t.Fatalf("thief stole %d tasks, want 10 (the backlogged victim, one half-batch)", n)
	}
	if got := e.QueueFor(cpuset.New(0)).Len(); got != 2 {
		t.Errorf("lighter victim drained to %d, want untouched 2", got)
	}
}

// TestScheduleOneSteals: the latency-budget entry point steals exactly
// one task when the local path is empty.
func TestScheduleOneSteals(t *testing.T) {
	e := stealEngine(StealFullTree)
	for i := 0; i < 5; i++ {
		if err := e.SubmitLocal(anyTask(nil), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !e.ScheduleOne(6) {
		t.Fatal("ScheduleOne found nothing to steal")
	}
	if got := e.QueueFor(cpuset.New(0)).Len(); got != 4 {
		t.Errorf("victim backlog = %d, want 4 (exactly one task stolen)", got)
	}
	if got := e.Stats().StealTasks; got != 1 {
		t.Errorf("StealTasks = %d, want 1", got)
	}
}

// TestStealLocalWorkFirst: a CPU with work on its own path never pays
// the steal walk.
func TestStealLocalWorkFirst(t *testing.T) {
	e := stealEngine(StealFullTree)
	if err := e.SubmitLocal(anyTask(nil), 0); err != nil {
		t.Fatal(err)
	}
	mine := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(1)}
	e.MustSubmit(mine)
	if n := e.Schedule(1); n != 1 {
		t.Fatalf("Schedule(1) ran %d, want 1 (own task only)", n)
	}
	if s := e.Stats(); s.StealAttempts != 0 {
		t.Errorf("StealAttempts = %d, want 0 when local work exists", s.StealAttempts)
	}
	e.Schedule(0)
}

// TestStealPinnedNeverEscapesUnderRace is the steal correctness
// property under concurrency: a storm of thieves on every CPU races a
// producer parking both unconstrained and pinned tasks on one leaf; no
// pinned task may ever execute outside its CPU set, nothing may be
// lost, and the steal/queue statistics must still tie out. Run with
// -race.
func TestStealPinnedNeverEscapesUnderRace(t *testing.T) {
	for _, policy := range []StealPolicy{StealSiblings, StealFullTree} {
		t.Run(policy.String(), func(t *testing.T) {
			topo := topology.Borderline()
			e := New(Config{Topology: topo, Steal: StealConfig{Policy: policy}})
			const rounds = 50
			const burst = 24
			total := rounds * burst

			var executed atomic.Int64
			var badCPU atomic.Int64
			stop := make(chan struct{})
			var swg sync.WaitGroup
			for cpu := 0; cpu < topo.NCPUs; cpu++ {
				swg.Add(1)
				go func(cpu int) {
					defer swg.Done()
					for {
						e.Schedule(cpu)
						select {
						case <-stop:
							for e.Schedule(cpu) > 0 {
							}
							return
						default:
						}
					}
				}(cpu)
			}

			submits := 0
			for r := 0; r < rounds; r++ {
				home := r % topo.NCPUs
				tasks := make([]Task, burst)
				for i := range tasks {
					if i%3 == 0 {
						// Pinned to the home CPU: stealable in transit,
						// executable only at home.
						tasks[i].CPUSet = cpuset.New(home)
					} // else unconstrained: fair game for any thief.
					tasks[i].Fn = func(arg any) bool {
						task := arg.(*Task)
						cpu := int(task.lastCPU.Load())
						if !task.CPUSet.IsEmpty() && !task.CPUSet.IsSet(cpu) {
							badCPU.Add(1)
						}
						executed.Add(1)
						return true
					}
					tasks[i].Arg = &tasks[i]
					if err := e.SubmitLocal(&tasks[i], home); err != nil {
						t.Fatal(err)
					}
					submits++
				}
				for i := range tasks {
					e.WaitActive(&tasks[i], home)
				}
			}
			close(stop)
			swg.Wait()

			if got := executed.Load(); got != int64(total) {
				t.Errorf("executed %d tasks, want %d", got, total)
			}
			if n := badCPU.Load(); n != 0 {
				t.Errorf("%d pinned executions escaped their CPU set", n)
			}
			if e.Pending() != 0 {
				t.Errorf("Pending = %d after completion", e.Pending())
			}
			s := e.Stats()
			if s.Submitted != uint64(submits) {
				t.Errorf("Submitted = %d, want %d", s.Submitted, submits)
			}
			if s.Executions != uint64(total) {
				t.Errorf("Executions = %d, want %d", s.Executions, total)
			}
			var perCPU uint64
			for _, n := range s.StealPerCPU {
				perCPU += n
			}
			if perCPU != s.StealTasks {
				t.Errorf("ΣStealPerCPU = %d, want StealTasks = %d", perCPU, s.StealTasks)
			}
			if s.StealTasks > s.Executions {
				t.Errorf("StealTasks = %d exceeds Executions = %d", s.StealTasks, s.Executions)
			}
			if s.StealHits > s.StealAttempts {
				t.Errorf("StealHits = %d exceeds StealAttempts = %d", s.StealHits, s.StealAttempts)
			}
		})
	}
}

// TestFindIdleNearPrefersLeastLoaded: placement feedback — among
// equally-near idle CPUs, the one that has executed the least wins.
func TestFindIdleNearPrefersLeastLoaded(t *testing.T) {
	e := New(Config{Topology: topology.Kwak()})
	// Load CPU 1 with some executions; CPUs 1 and 2 are both siblings
	// of 0 (same L3).
	for i := 0; i < 3; i++ {
		e.MustSubmit(&Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(1)})
	}
	for e.Schedule(1) > 0 {
	}
	e.SetIdle(1, true)
	e.SetIdle(2, true)
	if got := e.findIdleNear(0); got != 2 {
		t.Errorf("findIdleNear(0) = %d, want 2 (least-loaded sibling)", got)
	}
	// The feedback only breaks ties within a level: a loaded sibling
	// still beats an unloaded remote core.
	e.SetIdle(2, false)
	e.SetIdle(13, true)
	if got := e.findIdleNear(0); got != 1 {
		t.Errorf("findIdleNear(0) = %d, want 1 (proximity before load)", got)
	}
}

// recountStealable recounts a quiescent queue from its tasks' CPU sets:
// it drains the queue whole, counts the tasks some CPU other than the
// queue's owner may run, and puts the chain back in order.
func recountStealable(q *Queue) int64 {
	head, n, _ := q.drain(1<<30, true)
	var tail *Task
	recount, flagged := 0, 0
	for t := head; t != nil; t = t.next {
		tail = t
		if t.stealable {
			flagged++
		}
		if cpu, ok := t.CPUSet.Single(); q.owner >= 0 && (!ok || cpu != q.owner) {
			recount++
		}
	}
	q.enqueueChain(head, tail, n)
	q.stealable.Add(int64(flagged))
	return int64(recount)
}

// TestStealableCountExactUnderRace: four schedulers on Borderline each
// submit a random mix of pinned, multi-CPU and unconstrained tasks, by
// Submit and by SubmitLocal, while scheduling and stealing from each
// other. Every task runs exactly once on an allowed CPU, and whenever
// the engine is quiescent every queue's stealable count equals a recount
// of what it holds — zero once everything has run. Run with -race.
func TestStealableCountExactUnderRace(t *testing.T) {
	cpus := []int{0, 1, 2, 5} // a sibling pair, a cousin, a remote core
	for _, kind := range []QueueKind{QueueSpinlock, QueueMutex, QueueLockFree} {
		t.Run(kind.String(), func(t *testing.T) {
			e := New(Config{
				Topology:  topology.Borderline(),
				QueueKind: kind,
				Steal:     StealConfig{Policy: StealFullTree},
			})
			const perWorker = 150
			total := int64(len(cpus) * perWorker)
			var done, bad atomic.Int64
			onDone := func(task *Task) {
				if cpu := task.LastCPU(); !task.CPUSet.IsEmpty() && !task.CPUSet.IsSet(cpu) {
					bad.Add(1)
				}
				done.Add(1)
			}
			tasks := make([][]Task, len(cpus))
			var wg sync.WaitGroup
			for w, cpu := range cpus {
				tasks[w] = make([]Task, perWorker)
				wg.Add(1)
				go func(w, cpu int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(w), 7))
					for i := range tasks[w] {
						task := &tasks[w][i]
						task.Fn = func(any) bool { return true }
						task.OnDone = onDone
						switch rng.IntN(3) {
						case 0:
							task.CPUSet = cpuset.New(cpus[rng.IntN(len(cpus))])
						case 1:
							task.CPUSet = cpuset.New(cpus[rng.IntN(len(cpus))], cpus[rng.IntN(len(cpus))])
						}
						var err error
						if rng.IntN(2) == 0 {
							err = e.SubmitLocal(task, cpu)
						} else {
							err = e.Submit(task)
						}
						if err != nil {
							t.Error(err)
							return
						}
						if i%10 == 9 {
							e.Schedule(cpu)
							e.ScheduleOne(cpu)
						}
					}
				}(w, cpu)
			}
			wg.Wait()
			checkCounts := func(phase string) {
				t.Helper()
				for _, q := range e.Queues() {
					if got, want := q.stealable.Load(), recountStealable(q); got != want {
						t.Errorf("%s: %v stealable count = %d, recount %d", phase, q.Node(), got, want)
					}
				}
			}
			checkCounts("after submission")
			for _, cpu := range cpus {
				wg.Add(1)
				go func(cpu int) {
					defer wg.Done()
					for done.Load() < total {
						if e.Schedule(cpu) == 0 {
							runtime.Gosched()
						}
					}
				}(cpu)
			}
			wg.Wait()
			checkCounts("at quiescence")
			for _, q := range e.Queues() {
				if n := q.stealable.Load(); n != 0 {
					t.Errorf("%v stealable count = %d with nothing queued", q.Node(), n)
				}
			}
			if n := bad.Load(); n != 0 {
				t.Errorf("%d tasks ran outside their CPU set", n)
			}
			for w := range tasks {
				for i := range tasks[w] {
					if task := &tasks[w][i]; !task.Done() || task.Runs() != 1 {
						t.Fatalf("task %d/%d: done %v after %d runs, want exactly one", w, i, task.Done(), task.Runs())
					}
				}
			}
		})
	}
}
