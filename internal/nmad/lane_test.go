package nmad

import (
	"encoding/binary"
	"sync"
	"testing"

	"pioman/internal/core"
)

// TestSendLaneOneTaskPerGate: frames pushed onto one gate with no
// scheduling pass in between queue behind one lane task, not one task
// each, so no two of the gate's frames can run on two cores at once.
func TestSendLaneOneTaskPerGate(t *testing.T) {
	tasks := core.New(core.Config{})
	ea := NewEngine(Config{Tasks: tasks})
	eb := NewEngine(Config{Tasks: tasks})
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
	const n = 16
	before := tasks.Pending()
	sends := make([]*Request, n)
	for i := range sends {
		sends[i] = ga.Isend(7, []byte{byte(i)})
	}
	if got := tasks.Pending() - before; got != 1 {
		t.Fatalf("%d Isends on one gate queued %d tasks, want 1 lane task", n, got)
	}
	for i := 0; i < n; i++ {
		r := gb.Irecv(7)
		for !r.Test() {
			tasks.Schedule(0)
		}
		if r.Err() != nil || len(r.Data) != 1 || r.Data[0] != byte(i) {
			t.Fatalf("receive %d = %v, %v; want [%d]", i, r.Data, r.Err(), i)
		}
	}
	for _, s := range sends {
		for !s.Test() {
			tasks.Schedule(0)
		}
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
	}
}

// TestSendLanePerTagOrder: MPI's non-overtaking rule on one rail. Eight
// producers share one tag on one gate; each producer's sequence numbers
// must arrive in the order it sent them, whatever the interleaving
// between producers. Producer 0 alternates eager and rendezvous sizes,
// so an RTS may not overtake the eager message before it, nor the
// reverse. Run with -race -cpu 1,2,4.
func TestSendLanePerTagOrder(t *testing.T) {
	for name, strategy := range map[string]StrategyKind{"default": StrategyDefault, "aggreg": StrategyAggreg} {
		t.Run(name, func(t *testing.T) {
			ea, ga, _, gb := enginePair(t, 1, strategy)
			const producers, perProducer, tag = 8, 64, 3
			rdvSize := ea.cfg.EagerThreshold + 1
			recvs := make([]*Request, producers*perProducer)
			for i := range recvs {
				recvs[i] = gb.Irecv(tag)
			}
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					reqs := make([]*Request, perProducer)
					for i := range reqs {
						size := 8
						if p == 0 && i%2 == 1 {
							size = rdvSize
						}
						msg := make([]byte, size)
						binary.LittleEndian.PutUint32(msg[0:], uint32(p))
						binary.LittleEndian.PutUint32(msg[4:], uint32(i))
						reqs[i] = ga.Isend(tag, msg)
					}
					for _, r := range reqs {
						if err := r.Wait(); err != nil {
							t.Error(err)
						}
					}
				}(p)
			}
			defer wg.Wait() // producers may not outlive the test
			next := make([]uint32, producers)
			for i, r := range recvs {
				if err := r.Wait(); err != nil {
					t.Fatalf("receive %d: %v", i, err)
				}
				p := binary.LittleEndian.Uint32(r.Data[0:])
				seq := binary.LittleEndian.Uint32(r.Data[4:])
				if seq != next[p] {
					t.Fatalf("receive %d: producer %d's message %d arrived when %d was due", i, p, seq, next[p])
				}
				next[p]++
			}
		})
	}
}
