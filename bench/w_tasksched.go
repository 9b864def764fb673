package main

import (
	"errors"
	"sync/atomic"

	"pioman/internal/core"
	"pioman/internal/cpuset"
	"pioman/internal/nmad"
	"pioman/internal/spinlock"
	"pioman/internal/topology"
	"pioman/internal/trace"
)

var errStalled = errors.New("bench: a batch of tasks did not complete within the limit")

const (
	tsBatch  = 64
	tsSample = 8 // one task in eight is timed from submit to body start
)

// taskSched is the engine-alone workload, the paper's Tables I and II
// on real cores: p workers on a core.Engine configured as nmad
// configures its private one, each submitting batches of 64 embedded,
// reused tasks — half pinned to its own CPU, a quarter machine-wide,
// a quarter pinned to the next worker's CPU — and calling Schedule
// until its batch is done. One operation is one task.
type taskSched struct {
	eng     *core.Engine
	workers []*tsWorker
	done    atomic.Int64 // tasks completed, for the watchdog
	stop    atomic.Bool  // set by abort
	active  atomic.Int64 // workers still submitting in this stretch
}

// tsTask is one embedded task and what its body and OnDone record.
type tsTask struct {
	core.Task
	owner    *tsWorker
	pin      int   // CPU the task is pinned to, -1 for machine-wide
	submitNs int64 // 0 when the task is not timed
	startNs  int64
	ran      int
}

type tsWorker struct {
	cpu   int
	tasks [tsBatch]tsTask
	lat   []int64
	sp    *spanLog
	batch uint64
	_     spinlock.CacheLinePad
	done  atomic.Int64 // OnDone calls of the current batch
	_     spinlock.CacheLinePad
}

// newTaskEngine builds the task engine the way nmad.NewEngine builds
// its private one.
func newTaskEngine(rec *trace.Recorder) *core.Engine {
	return core.New(core.Config{
		Topology:      topology.Host(),
		AdaptiveDrain: true,
		Steal:         core.StealConfig{Policy: core.StealFullTree, Adaptive: true},
		Trace:         rec,
	})
}

func buildTaskSched(cfg buildCfg) (rig, error) {
	r := &taskSched{eng: newTaskEngine(cfg.rec)}
	rng := cfg.rng()
	ncpu := r.eng.Topology().NCPUs
	for w := 0; w < cfg.p; w++ {
		wk := &tsWorker{cpu: w % ncpu, sp: cfg.spans.log("worker")}
		// The task classes in their exact shares, in an order drawn
		// from the seed.
		pins := make([]int, 0, tsBatch)
		for i := 0; i < tsBatch; i++ {
			switch {
			case i < tsBatch/2:
				pins = append(pins, wk.cpu)
			case i < 3*tsBatch/4:
				pins = append(pins, -1)
			default:
				pins = append(pins, (w+1)%cfg.p%ncpu)
			}
		}
		rng.Shuffle(len(pins), func(i, j int) { pins[i], pins[j] = pins[j], pins[i] })
		for i := range wk.tasks {
			t := &wk.tasks[i]
			t.owner, t.pin = wk, pins[i]
			if t.pin >= 0 {
				t.CPUSet = cpuset.New(t.pin)
			}
			t.Arg = t
			t.Fn = tsBody
			t.OnDone = tsDone
		}
		r.workers = append(r.workers, wk)
	}
	return r, nil
}

func tsBody(arg any) bool {
	t := arg.(*tsTask)
	if t.submitNs != 0 {
		t.startNs = now()
	}
	t.ran++
	return true
}

func tsDone(t *core.Task) { t.Arg.(*tsTask).owner.done.Add(1) }

func (r *taskSched) drive(c driveCtl) segment {
	r.active.Store(int64(len(r.workers)))
	return fanOut(len(r.workers), c, func(i int, c driveCtl) segment { return r.workers[i].drive(c, r) })
}

func (wk *tsWorker) drive(c driveCtl, r *taskSched) segment {
	wk.lat = wk.lat[:0]
	eng := r.eng
	seg := closedLoop(c, &r.done, func(t0 int64) opResult {
		res := opResult{ops: tsBatch}
		s := wk.sp.begin("core.Submit x64", -1, wk.batch)
		for i := range wk.tasks {
			t := &wk.tasks[i]
			t.Reset()
			if i%tsSample == 0 {
				t.submitNs = now()
			}
			if err := eng.Submit(&t.Task); err != nil {
				res.err = err
			}
		}
		wk.sp.end(s)
		if res.err != nil {
			res.failed = tsBatch
			return res
		}
		s = wk.sp.begin("core.Schedule until done", -1, wk.batch)
		for spins := 1; wk.done.Load() < tsBatch; spins++ {
			eng.Schedule(wk.cpu)
			if spins%4096 == 0 && (r.stop.Load() || now()-t0 > opLimit) {
				// Tasks are still queued, so they cannot be reused:
				// the stretch ends here, failed.
				res.failed = tsBatch - wk.done.Load()
				res.err = errStalled
				return res
			}
		}
		wk.sp.end(s)
		wk.done.Store(0)
		wk.batch++
		for i := range wk.tasks {
			t := &wk.tasks[i]
			if t.ran != 1 || (t.pin >= 0 && t.LastCPU() != t.pin) {
				res.failed++
			}
			t.ran = 0
			if t.submitNs != 0 {
				wk.lat = append(wk.lat, t.startNs-t.submitNs)
				t.submitNs = 0
			}
		}
		return res
	})
	// Tasks this worker's peers pinned to its CPU still need it.
	r.active.Add(-1)
	for r.active.Load() > 0 && !r.stop.Load() {
		eng.Schedule(wk.cpu)
	}
	seg.lat = wk.lat
	return seg
}

func (r *taskSched) nmad() []*nmad.Engine  { return nil }
func (r *taskSched) tasks() []*core.Engine { return []*core.Engine{r.eng} }
func (r *taskSched) outOfOrder() int64     { return 0 }
func (r *taskSched) progress() int64       { return r.done.Load() }
func (r *taskSched) abort()                { r.stop.Store(true) }
func (r *taskSched) close()                {}
