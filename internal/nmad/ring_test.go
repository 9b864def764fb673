package nmad

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Receive-ring tests: frameRing's order, growth and bound, both rails
// built on it, and what an idle pair costs.

// TestFrameRingOrderAcrossGrowth: at every size the ring passes through,
// the content wraps past the end of storage before the ring grows, so
// each growth copies a wrapped ring. FIFO order holds throughout, the
// ring refuses exactly at its bound, and storage never exceeds it (a
// bound that is not a power of two included).
func TestFrameRingOrderAcrossGrowth(t *testing.T) {
	for _, bound := range []int{256, 100} {
		t.Run(fmt.Sprint(bound), func(t *testing.T) {
			var r frameRing
			r.init(bound)
			if _, ok := r.pop(); ok || r.buf != nil {
				t.Fatal("a new ring holds a frame or storage")
			}
			var next, want uint64
			push := func(k int) {
				t.Helper()
				for range k {
					if !r.push(Frame{Hdr: Header{MsgID: next}}, false) {
						t.Fatalf("push %d refused at %d of %d", next, r.n.Load(), bound)
					}
					next++
				}
			}
			pop := func(k int) {
				t.Helper()
				for range k {
					f, ok := r.pop()
					if !ok || f.Hdr.MsgID != want {
						t.Fatalf("pop: frame %d (ok %v), want %d", f.Hdr.MsgID, ok, want)
					}
					want++
				}
			}
			push(3)
			pop(2)
			for l := len(r.buf); l < bound; l = len(r.buf) {
				push(l - int(r.n.Load())) // full
				pop(l / 2)
				push(l / 2) // full again, wrapped: head at l/2
				if r.head == 0 || int(r.n.Load()) != l {
					t.Fatalf("size %d: head %d, %d frames: not a full wrapped ring", l, r.head, r.n.Load())
				}
				push(1) // grows, copying the wrapped content
				if got := len(r.buf); got != min(2*l, bound) {
					t.Fatalf("grew from %d to %d slots, want %d", l, got, min(2*l, bound))
				}
				pop(l / 4)
			}
			push(bound - int(r.n.Load()))
			if r.push(Frame{}, false) {
				t.Fatalf("push accepted past the bound %d", bound)
			}
			pop(1)
			push(1)
			if len(r.buf) != bound || r.push(Frame{}, false) {
				t.Fatalf("storage %d slots, bound %d", len(r.buf), bound)
			}
			pop(bound)
			if _, ok := r.pop(); ok || want != next {
				t.Fatalf("drained %d of %d frames, ring still yields", want, next)
			}
		})
	}
}

// TestMemRailConcurrentSenders: four goroutines send on one mem rail
// while one poller drains the peer. Every frame arrives exactly once,
// in order per sender; a sender meeting a full ring retries.
func TestMemRailConcurrentSenders(t *testing.T) {
	const senders, perSender = 4, 5000
	a, b := MemPair()
	defer a.Close()
	defer b.Close()
	ep := (*memEndpoint)(a.(*memDriver))
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perSender {
				hdr := Header{Kind: KindEager, Tag: uint64(s), MsgID: uint64(i)}
				for {
					err := ep.SendFrame(hdr, []byte{byte(s)}, []byte{byte(i)})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrBackpressure) {
						t.Errorf("sender %d frame %d: %v", s, i, err)
						return
					}
					runtime.Gosched()
				}
			}
		}()
	}
	var next [senders]uint64
	deadline := time.Now().Add(time.Minute)
	for got := 0; got < senders*perSender; {
		f, ok, err := b.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d frames arrived", got, senders*perSender)
			}
			runtime.Gosched()
			continue
		}
		s := f.Hdr.Tag
		if s >= senders || f.Hdr.MsgID != next[s] || f.Ext[0] != byte(s) || f.Payload[0] != byte(f.Hdr.MsgID) {
			t.Fatalf("frame %+v: want sender %d's frame %d", f.Hdr, s, next[min(s, senders-1)])
		}
		next[s]++
		got++
	}
	wg.Wait()
	if _, ok, _ := b.Poll(); ok {
		t.Fatal("a frame arrived twice")
	}
}

// fillTCPRing sends n raw frames on a and waits until b's reader has
// filled its ring, where it then waits for a poll.
func fillTCPRing(t *testing.T, a, b Driver, n int) *tcpDriver {
	t.Helper()
	go func() {
		for i := range n {
			if err := a.Send(Header{Kind: KindEager, Tag: 1, MsgID: uint64(i)}, []byte{byte(i)}); err != nil {
				return // the rail was closed under the sender
			}
		}
	}()
	d := b.(*tcpDriver)
	deadline := time.Now().Add(10 * time.Second)
	for d.rx.n.Load() < tcpRingFrames {
		if time.Now().After(deadline) {
			t.Fatalf("ring holds %d frames, want %d", d.rx.n.Load(), tcpRingFrames)
		}
		time.Sleep(time.Millisecond)
	}
	return d
}

// TestTCPReaderBlocksOnFullRing: the peer writes more frames than the
// ring holds while nobody polls. The reader stops at the bound, no frame
// is lost, and the reader resumes as polls free slots.
func TestTCPReaderBlocksOnFullRing(t *testing.T) {
	const frames = tcpRingFrames + 500
	a, b := tcpPair(t)
	d := fillTCPRing(t, a, b, frames)
	time.Sleep(20 * time.Millisecond)
	if n, l := d.rx.n.Load(), len(d.rx.buf); n != tcpRingFrames || l != tcpRingFrames {
		t.Fatalf("ring holds %d frames in %d slots, want %d in %d", n, l, tcpRingFrames, tcpRingFrames)
	}
	deadline := time.Now().Add(10 * time.Second)
	for want := uint64(0); want < frames; {
		f, ok, err := b.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d frames arrived: the reader did not resume", want, frames)
			}
			runtime.Gosched()
			continue
		}
		if f.Hdr.MsgID != want || f.Payload[0] != byte(want) {
			t.Fatalf("frame %d arrived, want %d", f.Hdr.MsgID, want)
		}
		want++
	}
}

// TestMemPairFootprint: a connected mem pair that carries nothing
// allocates no receive slot, so one pair costs a few KiB where two
// preallocated 4 096-frame rings would cost ≈ 720 KB.
func TestMemPairFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds its own allocations")
	}
	const pairs = 100
	rails := make([]Driver, 0, 2*pairs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range pairs {
		a, b := MemPair()
		rails = append(rails, a, b)
	}
	runtime.ReadMemStats(&after)
	for _, d := range rails {
		d.Close()
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / pairs; per > 8<<10 {
		t.Fatalf("one MemPair allocates %d B, want ≤ 8 KiB", per)
	}
}
