package core

import (
	"sync/atomic"
	"testing"

	"pioman/internal/cpuset"
	"pioman/internal/topology"
)

func TestSubmitAllRunsEverything(t *testing.T) {
	e := New(Config{Topology: topology.Kwak()})
	const n = 40
	var ran atomic.Int64
	tasks := make([]*Task, n)
	for i := range tasks {
		cs := cpuset.Set{}
		if i%3 == 0 {
			cs = cpuset.New(i % e.Topology().NCPUs)
		}
		tasks[i] = &Task{Fn: func(any) bool { ran.Add(1); return true }, CPUSet: cs}
	}
	if err := e.SubmitAll(tasks...); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < e.Topology().NCPUs; cpu++ {
		e.Schedule(cpu)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d/%d", got, n)
	}
	if s := e.Stats(); s.Submitted != n {
		t.Errorf("Submitted = %d, want %d (batch counts like per-task submits)", s.Submitted, n)
	}
}

func TestSubmitAllPlacementMatchesSubmit(t *testing.T) {
	e := New(Config{Topology: topology.Kwak()})
	pinned := &Task{Fn: func(any) bool { return true }, CPUSet: cpuset.New(3)}
	free := &Task{Fn: func(any) bool { return true }}
	if err := e.SubmitAll(pinned, free); err != nil {
		t.Fatal(err)
	}
	if pinned.home != e.leaf[3] {
		t.Errorf("pinned task homed on %v, want CPU 3's leaf", pinned.home.Node())
	}
	if free.home != e.rootQ {
		t.Errorf("unconstrained task homed on %v, want the root queue", free.home.Node())
	}
}

func TestSubmitAllChainsSameQueue(t *testing.T) {
	e := New(Config{Topology: topology.Kwak()})
	const n = 16
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = &Task{Fn: func(any) bool { return true }}
	}
	if err := e.SubmitAll(tasks...); err != nil {
		t.Fatal(err)
	}
	// All n unconstrained tasks head for the root queue: one chained
	// append, not n lock round-trips.
	if ops := e.rootQ.chainOps.Load(); ops != 1 {
		t.Errorf("chain appends = %d, want 1 for a same-queue batch", ops)
	}
	acquires, _ := e.rootQ.LockStats()
	if acquires != 1 {
		t.Errorf("producer lock acquisitions = %d, want 1", acquires)
	}
}

func TestSubmitAllInvalidMidBatchIsAllOrNothing(t *testing.T) {
	e := New(Config{Topology: topology.Kwak()})
	good := &Task{Fn: func(any) bool { return true }}
	bad := &Task{} // nil Fn
	if err := e.SubmitAll(good, bad); err == nil {
		t.Fatal("batch with an invalid task should fail")
	}
	if e.Pending() != 0 {
		t.Fatalf("failed batch enqueued %d tasks", e.Pending())
	}
	if got := good.State(); got != StateFree {
		t.Fatalf("earlier task left in state %v, want free", got)
	}
	// The reverted task is resubmittable.
	if err := e.Submit(good); err != nil {
		t.Fatal(err)
	}
	e.Schedule(0)
	if !good.Done() {
		t.Error("reverted task did not run after resubmission")
	}
}

func TestSubmitAllEmptyAndSingleton(t *testing.T) {
	e := New(Config{Topology: topology.Kwak()})
	if err := e.SubmitAll(); err != nil {
		t.Fatal(err)
	}
	one := &Task{Fn: func(any) bool { return true }}
	if err := e.SubmitAll(one); err != nil {
		t.Fatal(err)
	}
	e.Schedule(0)
	if !one.Done() {
		t.Error("singleton batch did not run")
	}
}
