package nmad

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/core"
	"pioman/internal/topology"
)

// Event-driven progression: rails arm their poll task when something
// lands, the task engine's progression context parks when a pass ran
// nothing, and Wait spins a bounded number of empty passes before it
// parks.

// idlePairs connects ea and eb by one mem gate and one loopback TCP
// gate, and settles one message each way on both.
func idlePairs(t *testing.T, ea, eb *Engine) {
	t.Helper()
	ma, mb := MemPair()
	ta, tb := tcpPair(t)
	for _, d := range [][2]Driver{{ma, mb}, {ta, tb}} {
		ga, err := ea.NewGate(d[0])
		if err != nil {
			t.Fatal(err)
		}
		gb, err := eb.NewGate(d[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range [][2]*Gate{{ga, gb}, {gb, ga}} {
			r := g[1].Irecv(7)
			if err := g[0].Send(7, []byte("settle")); err != nil {
				t.Fatal(err)
			}
			if err := r.Wait(); err != nil || string(r.Data) != "settle" {
				t.Fatalf("settling message: %q, %v", r.Data, err)
			}
		}
	}
}

// TestIdleGateRunsNoTasks: connected gates with nothing to do cost no
// task executions; the bound leaves room for two per sweep tick.
func TestIdleGateRunsNoTasks(t *testing.T) {
	ea, eb := NewEngine(Config{}), NewEngine(Config{})
	defer ea.Close()
	defer eb.Close()
	idlePairs(t, ea, eb)
	time.Sleep(20 * time.Millisecond) // let the settling acks land
	const idle = 200 * time.Millisecond
	tick := time.Duration(ea.cfg.RdvTimeout / 8)
	limit := 2 * uint64(idle/tick+1)
	before := [2]uint64{ea.Tasks().Stats().Executions, eb.Tasks().Stats().Executions}
	time.Sleep(idle)
	for i, e := range []*Engine{ea, eb} {
		if n := e.Tasks().Stats().Executions - before[i]; n > limit {
			t.Errorf("engine %d ran %d tasks while idle for %v, want at most %d (2 per %v sweep tick)", i, n, idle, limit, tick)
		}
	}
}

// TestIdleWithoutProgressRunsNoTasks: on a task engine without a
// progression context, two connected engines with nothing due run no
// task over 1 000 Schedule passes. The mem rails arm their poll tasks
// only when something lands, and the deadline sweep is a timer (on a
// frozen clock here, so it never comes due again), not a task re-queued
// every pass.
func TestIdleWithoutProgressRunsNoTasks(t *testing.T) {
	var now atomic.Int64
	tasks := core.New(core.Config{Clock: now.Load})
	ea, eb := NewEngine(Config{Tasks: tasks}), NewEngine(Config{Tasks: tasks})
	defer ea.Close()
	defer eb.Close()
	da, db := MemPair()
	ga, err := ea.NewGate(da)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := eb.NewGate(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range [][2]*Gate{{ga, gb}, {gb, ga}} {
		r := g[1].Irecv(7)
		if err := g[0].Send(7, []byte("settle")); err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100 && tasks.Schedule(0) > 0; i++ {
	} // the last acks
	before := tasks.Stats().Executions
	for i := 0; i < 1000; i++ {
		tasks.Schedule(0)
	}
	if n := tasks.Stats().Executions - before; n != 0 {
		t.Errorf("idle engines ran %d tasks over 1000 passes, want 0", n)
	}
}

// TestIdleParkedEngineSweepsWithinTick: an idle engine whose progression
// context parks still sweeps its deadlines every RdvTimeout/8 — the
// sweep timer bounds the park — so its LastProgress never falls more
// than one tick (plus scheduling slack) behind the clock.
func TestIdleParkedEngineSweepsWithinTick(t *testing.T) {
	const tick, slack = 10 * time.Millisecond, 50 * time.Millisecond
	ea, eb := NewEngine(Config{RdvTimeout: int64(8 * tick)}), NewEngine(Config{RdvTimeout: int64(8 * tick)})
	defer ea.Close()
	defer eb.Close()
	idlePairs(t, ea, eb)
	var worst time.Duration
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		for _, e := range []*Engine{ea, eb} {
			worst = max(worst, time.Duration(e.tasks.Now()-e.LastProgress()))
		}
	}
	if worst > tick+slack {
		t.Errorf("an idle engine's last sweep fell %v behind the clock, want at most %v", worst, tick+slack)
	}
}

// TestWaitParksThenWakes: a receive whose message comes 50 ms later
// completes with the right bytes, and its waiter stops scanning the
// task engine long before that: every Schedule pass on the receiving
// engine records a drain or a steal sample, so the samples bound the
// passes from above.
func TestWaitParksThenWakes(t *testing.T) {
	tasks := core.New(core.Config{
		Topology:     topology.Kwak(), // CPU 0 for Wait, CPU 1 for the loop
		LatencyStats: true,
		Steal:        core.StealConfig{Policy: core.StealFullTree},
		Progress:     true,
	})
	defer tasks.Close()
	ea, eb := NewEngine(Config{}), NewEngine(Config{Tasks: tasks})
	defer ea.Close()
	defer eb.Close()
	da, db := MemPair()
	ga, err := ea.NewGate(da)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := eb.NewGate(db)
	if err != nil {
		t.Fatal(err)
	}
	passes := func() uint64 {
		d, s := tasks.DrainLatency(), tasks.StealLatency()
		return d.Count() + s.Count()
	}
	msg := []byte("fifty milliseconds later")
	r := gb.Irecv(3)
	before := passes()
	go func() {
		time.Sleep(50 * time.Millisecond)
		ga.Isend(3, msg)
	}()
	if err := r.Wait(); err != nil || !bytes.Equal(r.Data, msg) {
		t.Fatalf("Wait = %q, %v; want %q", r.Data, err, msg)
	}
	if n := passes() - before; n >= 1000 {
		t.Errorf("the receiving engine ran %d Schedule passes over a 50 ms wait, want fewer than 1000", n)
	}
}

// TestWakeStressMixedRails hunts lost wake-ups: 8 producers each send
// 2 000 messages, every fourth one a rendezvous, half over a mem gate
// and half over a TCP gate, with every sender and receiver waiting on
// each request in turn, so the progression contexts and the waiters park
// and wake all the time. Every request must complete, with its bytes,
// before the deadline.
func TestWakeStressMixedRails(t *testing.T) {
	const producers, msgs = 8, 2000
	ea, eb := NewEngine(Config{}), NewEngine(Config{})
	defer ea.Close()
	defer eb.Close()
	ma, mb := MemPair()
	ta, tb := tcpPair(t)
	var sendG, recvG [2]*Gate
	for i, d := range [][2]Driver{{ma, mb}, {ta, tb}} {
		var err error
		if sendG[i], err = ea.NewGate(d[0]); err != nil {
			t.Fatal(err)
		}
		if recvG[i], err = eb.NewGate(d[1]); err != nil {
			t.Fatal(err)
		}
	}
	payload := func(p, i int) []byte {
		n := 64
		if i%4 == 3 {
			n = 12 << 10
		}
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(p*31 + i*7 + j)
		}
		return b
	}
	errs := make(chan error, 2*producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(2)
		tag := uint64(p)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				if err := sendG[p%2].Isend(tag, payload(p, i)).Wait(); err != nil {
					errs <- fmt.Errorf("producer %d message %d: %w", p, i, err)
					return
				}
			}
		}(p)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				r := recvG[p%2].Irecv(tag)
				if err := r.Wait(); err != nil {
					errs <- fmt.Errorf("receiver %d message %d: %w", p, i, err)
					return
				}
				if !bytes.Equal(r.Data, payload(p, i)) {
					errs <- fmt.Errorf("receiver %d message %d: wrong bytes", p, i)
					return
				}
			}
		}(p)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("requests still outstanding after 2 minutes: a wake-up was lost")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRequestEnteringAfterCloseFails: a submission that passed
// Isend's or Irecv's closed check just before Close ran reaches the
// gate's maps after Close took them. It must fail there, not wait on an
// engine nobody progresses any more: a parked Wait would never return.
// (Driven here without the race: the submission paths are called
// directly on a closed engine.)
func TestRequestEnteringAfterCloseFails(t *testing.T) {
	ea, ga, _, _ := enginePair(t, 1, StrategyDefault)
	ea.Close()
	recv := newRequest(ea)
	recv.gate, recv.tag = ga, 1
	ga.injectRecv(recv)
	eager, rdv := newRequest(ea), newRequest(ea)
	ga.injectSend(eager, 1, []byte("late"))
	ga.injectSend(rdv, 1, make([]byte, 64<<10))
	for name, r := range map[string]*Request{"receive": recv, "eager send": eager, "rendezvous send": rdv} {
		if !r.Test() || r.Err() == nil {
			t.Errorf("%s entered after Close: completed %v, error %v; want a failure", name, r.Test(), r.Err())
		}
	}
}
