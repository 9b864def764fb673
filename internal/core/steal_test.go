package core

import (
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

// TestStealBatchBounded: one steal detaches at most the configured
// fraction of the drain batch, leaving the rest with the victim.
func TestStealBatchBounded(t *testing.T) {
	e := New(Config{
		Topology: topology.Borderline(),
		Steal:    StealConfig{Policy: StealFullTree, BatchFraction: 0.25},
	})
	const backlog = 64
	for i := 0; i < backlog; i++ {
		if err := e.SubmitLocal(anyTask(nil), 0); err != nil {
			t.Fatal(err)
		}
	}
	// 0.25 × 32 = 8 tasks per steal; Schedule steals once per call
	// because the first successful group attempt satisfies the pass.
	if n := e.Schedule(1); n != 8 {
		t.Fatalf("first steal migrated %d tasks, want 8", n)
	}
	if got := e.QueueFor(cpuset.New(0)).Len(); got != backlog-8 {
		t.Errorf("victim backlog = %d, want %d", got, backlog-8)
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

// TestFruitlessVictimNotRedrained: a victim whose backlog is entirely
// pinned to its owner is drained by a thief at most once; subsequent
// idle keypoints skip it (no lock traffic on the busy queue) until
// something new is enqueued there.
func TestFruitlessVictimNotRedrained(t *testing.T) {
	e := stealEngine(StealFullTree)
	const pinned = 6
	for i := 0; i < pinned; i++ {
		task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
		if err := e.SubmitLocal(task, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Schedule(1); n != 0 {
		t.Fatalf("thief ran %d pinned tasks", n)
	}
	if got := e.Stats().StealAttempts; got != 1 {
		t.Fatalf("StealAttempts = %d, want 1", got)
	}
	// Marked fruitless: further thief keypoints never touch the queue.
	for i := 0; i < 5; i++ {
		e.Schedule(1)
		e.ScheduleOne(7)
	}
	if got := e.Stats().StealAttempts; got != 1 {
		t.Errorf("StealAttempts = %d after fruitless mark, want still 1", got)
	}
	// A new enqueue invalidates the mark; the newcomer is stealable.
	fresh := anyTask(nil)
	if err := e.SubmitLocal(fresh, 0); err != nil {
		t.Fatal(err)
	}
	if n := e.Schedule(1); n != 1 {
		t.Fatalf("thief ran %d after fresh enqueue, want 1", n)
	}
	if !fresh.Done() {
		t.Error("fresh task not the one stolen")
	}
	// The pinned backlog is untouched and still runs at home.
	for e.Schedule(0) > 0 {
	}
	if got := e.Stats().Executions; got != pinned+1 {
		t.Errorf("Executions = %d, want %d", got, pinned+1)
	}
}

// TestBudgetClippedStealDoesNotMarkFruitless: a ScheduleOne steal that
// draws one pinned task from a victim must not write off the victim —
// stealable work may sit right behind the pinned head.
func TestBudgetClippedStealDoesNotMarkFruitless(t *testing.T) {
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
	// First keypoint draws the pinned head: nothing runnable, no mark.
	if e.ScheduleOne(1) {
		t.Fatal("thief ran the pinned head")
	}
	// Subsequent keypoints must still steal the tail.
	for i := 0; i < free; i++ {
		if !e.ScheduleOne(1) {
			t.Fatalf("keypoint %d stole nothing; victim wrongly marked fruitless", i)
		}
	}
	if got := ran.Load(); got != free {
		t.Errorf("stole %d unconstrained tasks, want %d", got, free)
	}
	e.Schedule(0)
	if !pinned.Done() {
		t.Error("pinned task lost")
	}
}

// TestFullWindowOfPinnedDoesNotHideDeeperWork: a steal window that
// fills completely with pinned tasks must not mark the victim
// fruitless — stealable tasks queued behind the pinned head would
// otherwise be hidden from every thief until the next enqueue.
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
	// First steal drains the full pinned window: no migration, no mark.
	if n := e.Schedule(1); n != 0 {
		t.Fatalf("thief ran %d pinned tasks", n)
	}
	// The stealable tail is now at the head; the next pass must get it.
	if n := e.Schedule(1); n != free {
		t.Fatalf("second pass stole %d, want %d (victim wrongly marked fruitless)", n, free)
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

// TestStealBatchFractionClamped: BatchFraction above 1 must not let a
// steal detach more than one full drain batch.
func TestStealBatchFractionClamped(t *testing.T) {
	e := New(Config{
		Topology: topology.Borderline(),
		Steal:    StealConfig{Policy: StealFullTree, BatchFraction: 4.0},
	})
	const backlog = 64
	for i := 0; i < backlog; i++ {
		if err := e.SubmitLocal(anyTask(nil), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Schedule(1); n != 32 {
		t.Fatalf("steal migrated %d tasks, want the full-batch clamp 32", n)
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
	if got := e.FindIdleNear(0); got != 2 {
		t.Errorf("FindIdleNear(0) = %d, want 2 (least-loaded sibling)", got)
	}
	// The feedback only breaks ties within a level: a loaded sibling
	// still beats an unloaded remote core.
	e.SetIdle(2, false)
	e.SetIdle(13, true)
	if got := e.FindIdleNear(0); got != 1 {
		t.Errorf("FindIdleNear(0) = %d, want 1 (proximity before load)", got)
	}
}
