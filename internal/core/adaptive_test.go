package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"pioman/internal/cpuset"
	"pioman/internal/topology"
)

// TestConfigNormalization: an out-of-range DrainBatch must fall back
// to its documented default instead of silently misbehaving (a
// negative DrainBatch used to reach the default only by accident of
// the <= 0 check), and the steal batch and adaptive bounds follow the
// batch: half of it, and [1, 8×batch].
func TestConfigNormalization(t *testing.T) {
	e := New(Config{
		Topology:      topology.Borderline(),
		DrainBatch:    -5,
		AdaptiveDrain: true,
		Steal:         StealConfig{Policy: StealFullTree},
	})
	if e.batch != defaultDrainBatch {
		t.Errorf("DrainBatch -5 normalized to %d, want %d", e.batch, defaultDrainBatch)
	}
	if e.stealBatch != defaultDrainBatch/2 {
		t.Errorf("steal batch %d, want the half-batch %d", e.stealBatch, defaultDrainBatch/2)
	}
	q := e.leaf[0]
	if q.ctrl.Min() != 1 || q.ctrl.Max() != 8*defaultDrainBatch {
		t.Errorf("adaptive bounds [%d, %d], want [1, %d]",
			q.ctrl.Min(), q.ctrl.Max(), 8*defaultDrainBatch)
	}
	if q.DrainBatchNow() != defaultDrainBatch {
		t.Errorf("starting adaptive batch = %d, want %d", q.DrainBatchNow(), defaultDrainBatch)
	}

	// An explicit batch moves the bounds with it.
	e2 := New(Config{
		Topology:      topology.Borderline(),
		DrainBatch:    4,
		AdaptiveDrain: true,
	})
	q2 := e2.leaf[0]
	if q2.ctrl.Min() != 1 || q2.ctrl.Max() != 32 || q2.DrainBatchNow() != 4 {
		t.Errorf("bounds [%d, %d] start %d, want [1, 32] start 4",
			q2.ctrl.Min(), q2.ctrl.Max(), q2.DrainBatchNow())
	}
}

// TestAdaptiveDrainShrinksUnderScheduleOne: a queue drained by
// latency-budgeted callers must walk its batch down to the minimum —
// the ScheduleOne caller is paying for one task, so the critical
// section should detach one task.
func TestAdaptiveDrainShrinksUnderScheduleOne(t *testing.T) {
	e := New(Config{Topology: topology.Borderline(), AdaptiveDrain: true})
	q := e.QueueFor(cpuset.New(0))
	for i := 0; i < 64; i++ {
		task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
		e.MustSubmit(task)
		if !e.ScheduleOne(0) {
			t.Fatal("ScheduleOne found nothing")
		}
	}
	if got := q.DrainBatchNow(); got != 1 {
		t.Errorf("batch after ScheduleOne-dominated load = %d, want 1", got)
	}
	if s := e.Stats(); s.BatchShrinks != 5 { // 32 → 16 → 8 → 4 → 2 → 1
		t.Errorf("BatchShrinks = %d, want 5", s.BatchShrinks)
	}
}

// TestAdaptiveDrainGrowsUnderBacklog: sustained deeper-than-a-batch
// backlogs drained by throughput callers must grow the batch to its
// cap, amortizing each lock acquisition over more tasks.
func TestAdaptiveDrainGrowsUnderBacklog(t *testing.T) {
	e := New(Config{Topology: topology.Borderline(), AdaptiveDrain: true})
	q := e.QueueFor(cpuset.New(0))
	tasks := make([]Task, 512)
	for round := 0; round < 16; round++ {
		for i := range tasks {
			tasks[i].Reset()
			tasks[i].Fn = func(any) bool { return true }
			tasks[i].CPUSet = cpuset.New(0)
			e.MustSubmit(&tasks[i])
		}
		for e.Schedule(0) > 0 {
		}
	}
	if got, want := q.DrainBatchNow(), 8*defaultDrainBatch; got != want {
		t.Errorf("batch after sustained backlog = %d, want the cap %d", got, want)
	}
	if s := e.Stats(); s.BatchGrows != 3 { // 32 → 64 → 128 → 256
		t.Errorf("BatchGrows = %d, want 3", s.BatchGrows)
	}
	// The amortization actually materialized: far fewer consumer lock
	// acquisitions than tasks.
	drains, drained := q.DrainStats()
	if drains == 0 || float64(drained)/float64(drains) < float64(defaultDrainBatch) {
		t.Errorf("tasks per drain = %d/%d, want ≥ %d once grown",
			drained, drains, defaultDrainBatch)
	}
}

// TestAdaptiveDrainFixedWhenOff: without AdaptiveDrain the engine
// keeps the fixed configured batch no matter the load mix.
func TestAdaptiveDrainFixedWhenOff(t *testing.T) {
	e := New(Config{Topology: topology.Borderline()})
	for i := 0; i < 64; i++ {
		task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
		e.MustSubmit(task)
		e.ScheduleOne(0)
	}
	if s := e.Stats(); s.BatchGrows != 0 || s.BatchShrinks != 0 {
		t.Errorf("fixed engine recorded batch moves: grows %d shrinks %d",
			s.BatchGrows, s.BatchShrinks)
	}
}

// TestAdaptiveStealSkipsPinnedAndRecovers: a backlog pinned to its
// owner costs an adaptive thief nothing — no attempt, no miss, no
// shrunken window — while tasks that do count as stealable but that the
// thief cannot run (pinned to a third CPU, parked on the wrong leaf)
// shrink its window; hits pull the window back up.
func TestAdaptiveStealSkipsPinnedAndRecovers(t *testing.T) {
	e := New(Config{
		Topology: topology.Borderline(),
		Steal:    StealConfig{Policy: StealFullTree, Adaptive: true},
	})
	for i := 0; i < 64; i++ {
		task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(0)}
		if err := e.SubmitLocal(task, 0); err != nil {
			t.Fatal(err)
		}
	}
	q := e.QueueFor(cpuset.New(0))
	for i := 0; i < 9; i++ {
		if n := e.Schedule(1); n != 0 {
			t.Fatalf("thief ran %d pinned tasks", n)
		}
	}
	if got := q.Dequeues(); got != 0 {
		t.Errorf("pinned victim dequeues = %d, want 0", got)
	}
	if got := e.Stats().StealAttempts; got != 0 {
		t.Errorf("StealAttempts = %d, want 0", got)
	}
	if r := e.StealRate(1); r != 1 {
		t.Errorf("steal hit-rate = %.3f after passes that never stole, want 1", r)
	}

	// Misses: each pass parks a task pinned to CPU 4 on CPU 0's leaf.
	// It counts as stealable there, and the thief re-homes it unrun.
	for i := 0; i < 9; i++ {
		task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(4)}
		if err := e.SubmitLocal(task, 0); err != nil {
			t.Fatal(err)
		}
		if n := e.Schedule(1); n != 0 {
			t.Fatalf("thief ran %d tasks pinned elsewhere", n)
		}
	}
	if r := e.StealRate(1); r > 0.2 {
		t.Errorf("steal hit-rate after 9 misses = %.3f, want ≤ 0.2", r)
	}
	for i := 0; i < e.stealBatch; i++ {
		task := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(4)}
		if err := e.SubmitLocal(task, 0); err != nil {
			t.Fatal(err)
		}
	}
	base := q.Dequeues()
	e.Schedule(1)
	if late := q.Dequeues() - base; late == 0 || late > uint64(e.stealBatch/4) {
		t.Errorf("window after 9 misses = %d, want 1..%d (shrunk from %d)",
			late, e.stealBatch/4, e.stealBatch)
	}

	// Recovery: run the backlogs down, then park stealable work — hits
	// must pull the window back up.
	for e.Schedule(0)+e.Schedule(4) > 0 {
	}
	var stolen atomic.Int64
	for i := 0; i < 48; i++ {
		task := &Task{Fn: func(any) bool { stolen.Add(1); return true }}
		if err := e.SubmitLocal(task, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12 && e.StealRate(1) < 0.5; i++ {
		e.Schedule(1)
	}
	if r := e.StealRate(1); r < 0.5 {
		t.Errorf("steal hit-rate after successful steals = %.3f, want ≥ 0.5", r)
	}
	if stolen.Load() == 0 {
		t.Error("no stealable task migrated during recovery")
	}
}

// TestAdaptiveStatsTieOutUnderRace: the adaptive controllers must not
// disturb the counting invariants — Σ enqueues == Submitted + Requeues
// + Skips, Σ dequeues == Executions + Skips — and every queue's batch
// must stay inside its bounds, under concurrent mixed Schedule /
// ScheduleOne load (run with -race).
func TestAdaptiveStatsTieOutUnderRace(t *testing.T) {
	topo := topology.Borderline()
	e := New(Config{
		Topology:      topo,
		AdaptiveDrain: true,
		Steal:         StealConfig{Policy: StealFullTree, Adaptive: true},
	})
	const producers = 4
	const perProducer = 400
	var wg sync.WaitGroup
	var ran atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cpu := p % topo.NCPUs
			for i := 0; i < perProducer; i++ {
				task := &Task{Fn: func(any) bool { ran.Add(1); return true }}
				if i%3 == 0 {
					task.CPUSet = cpuset.New(cpu)
				}
				if err := e.SubmitLocal(task, cpu); err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					e.ScheduleOne(cpu)
				} else {
					e.Schedule(cpu)
				}
			}
		}(p)
	}
	wg.Wait()
	for cpu := 0; cpu < topo.NCPUs; cpu++ {
		for e.Schedule(cpu) > 0 {
		}
	}
	if got := ran.Load(); got != producers*perProducer {
		t.Fatalf("ran %d tasks, want %d", got, producers*perProducer)
	}
	s := e.Stats()
	if s.Submitted != producers*perProducer {
		t.Errorf("Submitted = %d, want %d", s.Submitted, producers*perProducer)
	}
	var enq, deq uint64
	for _, q := range e.Queues() {
		enq += q.Enqueues()
		deq += q.Dequeues()
		if b := q.DrainBatchNow(); b < q.ctrl.Min() || b > q.ctrl.Max() {
			t.Errorf("queue %v batch %d escaped [%d, %d]",
				q.Node(), b, q.ctrl.Min(), q.ctrl.Max())
		}
	}
	if enq != s.Submitted+s.Requeues+s.Skips {
		t.Errorf("Σenq = %d, want Submitted+Requeues+Skips = %d",
			enq, s.Submitted+s.Requeues+s.Skips)
	}
	if deq != s.Executions+s.Skips {
		t.Errorf("Σdeq = %d, want Executions+Skips = %d", deq, s.Executions+s.Skips)
	}
}
