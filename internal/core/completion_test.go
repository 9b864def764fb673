package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/topology"
)

// TestCompletionDoneChan: Done is open before completion, closed by
// Publish, closed at once when first taken after completion, and open
// again after Reset.
func TestCompletionDoneChan(t *testing.T) {
	var c Completion
	ch := c.Done()
	select {
	case <-ch:
		t.Fatal("Done closed before completion")
	default:
	}
	if c.Test() || c.Err() != nil {
		t.Fatal("pending completion reads complete")
	}
	if !c.Claim() {
		t.Fatal("first Claim lost")
	}
	if c.Claim() {
		t.Fatal("second Claim won")
	}
	if c.Test() {
		t.Fatal("claimed completion reads complete before Publish")
	}
	errX := errors.New("x")
	c.Publish(errX)
	select {
	case <-ch:
	default:
		t.Fatal("Done not closed at completion")
	}
	if !c.Test() || c.Err() != errX {
		t.Fatalf("Test, Err = %v, %v after Publish", c.Test(), c.Err())
	}
	c.Reset()
	var late Completion
	late.Claim()
	late.Publish(nil)
	select {
	case <-late.Done():
	default:
		t.Fatal("Done taken after completion is not closed")
	}
	select {
	case <-c.Done():
		t.Fatal("Done after Reset is already closed")
	default:
	}
	if c.Test() || c.Err() != nil || !c.Claim() {
		t.Fatal("Reset did not return the completion to pending")
	}
}

// TestCompletionWakeRace reuses one Completion round after round, as a
// pooled request is reused. Each round two completers race for the
// claim against two Awaiters (the second falls back to Done), a select
// on Done and a Test poller; the next round starts as soon as the
// observers and the losing completer have returned, so the winner's
// Publish may still be handing its wake-up to the next round's waiter. Exactly one claim
// wins per round, every observer sees its own round's error, no
// wake-up is lost (the deadline) and none is left pending in the
// waiter pool to wake someone twice.
func TestCompletionWakeRace(t *testing.T) {
	e := New(Config{Topology: topology.Kwak(), Progress: true})
	defer e.Close()
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	var c Completion
	var completers sync.WaitGroup
	var wins [2]atomic.Int32 // claims won, by round parity
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < rounds; i++ {
			if i > 0 {
				c.Reset()
			}
			want := fmt.Errorf("round %d", i)
			won := &wins[i%2]
			won.Store(0)
			var observers sync.WaitGroup
			check := func(what string, got error) {
				if got != want {
					t.Errorf("round %d: %s saw %v", i, what, got)
				}
			}
			observers.Add(4)
			for a := 0; a < 2; a++ {
				go func() {
					defer observers.Done()
					check("Await", e.Await(&c))
				}()
			}
			go func() {
				defer observers.Done()
				<-c.Done()
				check("Done", c.Err())
			}()
			go func() {
				defer observers.Done()
				for !c.Test() {
					runtime.Gosched()
				}
				check("Test", c.Err())
			}()
			completers.Wait() // the last round's completers have returned
			if n := wins[(i+1)%2].Load(); i > 0 && n != 1 {
				t.Errorf("round %d: %d claims won, want 1", i-1, n)
			}
			completers.Add(2)
			lost := make(chan struct{}, 2)
			for k := 0; k < 2; k++ {
				go func() {
					defer completers.Done()
					if c.Claim() {
						won.Add(1)
						c.Publish(want)
					} else {
						lost <- struct{}{}
					}
				}()
			}
			observers.Wait()
			<-lost // only the winner's Publish may overlap the next round
			select {
			case <-c.Done():
			default:
				t.Errorf("round %d: Done taken after completion is not closed", i)
			}
			if i%2 == 1 {
				completers.Wait()
				if c.waiter.Load() != &published {
					t.Errorf("round %d: a waiter is left in the slot", i)
				}
				w := waiters.Get().(*waiter)
				if len(w.ch) != 0 {
					t.Errorf("round %d: a pooled waiter holds an unconsumed wake-up", i)
				}
				waiters.Put(w)
			}
		}
		completers.Wait()
		if n := wins[(rounds-1)%2].Load(); n != 1 {
			t.Errorf("round %d: %d claims won, want 1", rounds-1, n)
		}
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("stalled: a wake-up was lost")
	}
}
