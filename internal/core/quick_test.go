package core

import (
	"testing"
	"testing/quick"

	"pioman/internal/cpuset"
	"pioman/internal/topology"
)

// Property tests (testing/quick) over the queue-placement and scheduling
// invariants of the engine.

func setFromMask(mask uint16) cpuset.Set {
	var cs cpuset.Set
	for b := 0; b < 16; b++ {
		if mask&(1<<uint(b)) != 0 {
			cs.Set(b)
		}
	}
	return cs
}

func TestQuickQueueForCoversAndIsDeepest(t *testing.T) {
	e := kwakEngine()
	f := func(mask uint16) bool {
		cs := setFromMask(mask)
		q := e.QueueFor(cs)
		node := q.Node()
		if !cs.IsEmpty() && !cs.SubsetOf(node.CPUSet) {
			return false
		}
		for _, child := range node.Children {
			if !cs.IsEmpty() && cs.SubsetOf(child.CPUSet) {
				return false // a deeper queue would have been valid
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubmittedTasksAlwaysComplete(t *testing.T) {
	// Any batch of tasks with arbitrary (in-range) CPU sets completes
	// after every CPU schedules enough rounds, each task exactly once.
	e := kwakEngine()
	f := func(masks []uint16) bool {
		if len(masks) > 40 {
			masks = masks[:40]
		}
		runs := make([]int, len(masks))
		tasks := make([]*Task, len(masks))
		for i, m := range masks {
			i := i
			cs := setFromMask(m)
			tasks[i] = &Task{Fn: func(any) bool { runs[i]++; return true }, CPUSet: cs}
			if err := e.Submit(tasks[i]); err != nil {
				return false
			}
		}
		for round := 0; round < 4; round++ {
			for cpu := 0; cpu < 16; cpu++ {
				e.Schedule(cpu)
			}
		}
		for i, task := range tasks {
			if !task.Done() || runs[i] != 1 {
				return false
			}
			// The executing CPU respected the CPU set.
			if !task.CPUSet.IsEmpty() && !task.CPUSet.IsSet(task.LastCPU()) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickRepeatRunsExactlyUntilDone(t *testing.T) {
	e := kwakEngine()
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		count := 0
		task := &Task{
			Fn:      func(any) bool { count++; return count >= n },
			Options: Repeat,
			CPUSet:  cpuset.New(int(nRaw) % 16),
		}
		if err := e.Submit(task); err != nil {
			return false
		}
		cpu := int(nRaw) % 16
		for i := 0; i < n+2 && !task.Done(); i++ {
			e.Schedule(cpu)
		}
		return task.Done() && count == n && task.Runs() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickFindIdleNearReturnsIdleAllowedCPU(t *testing.T) {
	topo := topology.Kwak()
	f := func(idleMask uint16, homeRaw uint8) bool {
		e := New(Config{Topology: topo})
		home := int(homeRaw) % 16
		for cpu := 0; cpu < 16; cpu++ {
			e.SetIdle(cpu, idleMask&(1<<uint(cpu)) != 0)
		}
		got := e.findIdleNear(home)
		idle := setFromMask(idleMask)
		idleOthers := cpuset.AndNot(idle, cpuset.New(home))
		if idleOthers.IsEmpty() {
			return got == -1
		}
		// Must return some idle CPU that is not home.
		return got >= 0 && got != home && idle.IsSet(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
