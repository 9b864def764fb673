package nmad

import (
	"errors"
	"math/bits"
	"testing"

	"pioman/internal/fabric"
	"pioman/internal/simtime"
)

// Exactly-once across a long history: a gate's receive window must
// recognize a retransmission of a message settled hundreds of messages
// ago, and the sender's floor must close the holes its failed sends
// leave, so the window stays as small as what is actually in flight.

// fillers is how many messages each test settles between a lost ack or
// FIN and its retransmission: more than a 512-entry dedup log holds.
const fillers = 600

// maxWindowSpanAfter bounds the receive window's span once the fillers
// have settled: the window is exact, not merely bigger than the filler
// count.
const maxWindowSpanAfter = 128

// span is how many ids the window covers past its base: one past the
// highest settled id above the base, minus the base (0 when none).
func (w *recvWindow) span() uint64 {
	for i := len(w.bits) - 1; i >= 0; i-- {
		if x := w.bits[i]; x != 0 {
			return w.base&^63 + uint64(i)*64 + uint64(bits.Len64(x)) - w.base
		}
	}
	return 0
}

// window reads the gate's receive window base and span under its lock.
func window(g *Gate) (base, span uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recvWin.base, g.recvWin.span()
}

// settleEach drives the pair until every request completes, advancing
// the fabric clock by step after each pass that leaves one pending.
func (r *chaosRig) settleEach(t *testing.T, step simtime.Duration, reqs ...*Request) {
	t.Helper()
	for pass := 0; ; pass++ {
		r.schedule()
		done := true
		for _, q := range reqs {
			if !q.Test() {
				done = false
			} else if q.Err() != nil {
				t.Fatalf("filler failed: %v", q.Err())
			}
		}
		if done {
			return
		}
		if pass == 10000 {
			t.Fatal("filler did not settle")
		}
		r.f.Advance(step)
	}
}

// TestWindowEagerDedupPastOldLog drops message 1's ack, settles 600
// eager messages on another tag inside one retransmission timeout, and
// then posts a fresh receive on message 1's tag: the retransmission of
// message 1 must be recognized as settled and must not match it.
func TestWindowEagerDedupPastOldLog(t *testing.T) {
	r := newEagerRig(t, fabric.FaultConfig{}, StrategyDefault)
	defer r.close()

	first := r.gb.Irecv(1)
	r.db.SetFaults(&fabric.FaultConfig{DropProb: 1})
	sreq := r.ga.Isend(1, chaosPayload(64))
	r.schedule() // delivered; its ack dies
	r.db.SetFaults(nil)
	if !first.Test() || first.Err() != nil {
		t.Fatalf("message 1 not delivered: done %v, err %v", first.Test(), first.Err())
	}

	start := r.f.Now()
	for i := 0; i < fillers; i++ {
		rreq := r.gb.Irecv(2)
		r.settleEach(t, 0, r.ga.Isend(2, chaosPayload(64)), rreq)
	}
	if el := simtime.Duration(r.f.Now() - start); el >= chaosRdvTimeout {
		t.Fatalf("fillers took %v of virtual time, not inside one %v timeout", el, simtime.Duration(chaosRdvTimeout))
	}
	if n := r.sender.Stats().EagerRetries; n != 0 {
		t.Fatalf("message 1 retransmitted %d times before the fillers settled", n)
	}
	if _, span := window(r.gb); span > maxWindowSpanAfter {
		t.Errorf("receive window spans %d ids after the fillers, want ≤ %d", span, maxWindowSpanAfter)
	}

	extra := r.gb.Irecv(1)
	if !r.drive(64*chaosRdvTimeout, sreq) || sreq.Err() != nil {
		t.Fatalf("message 1's send did not complete: %v", sreq.Err())
	}
	if r.sender.Stats().EagerRetries == 0 {
		t.Fatal("message 1 completed without a retransmission; the test proves nothing")
	}
	r.drive(4*chaosRdvTimeout, extra)
	if extra.Test() {
		t.Fatal("retransmitted message 1 matched a fresh receive: delivered twice")
	}
	if !extra.Cancel() {
		t.Fatal("Cancel refused the sentinel receive")
	}
	requireClean(t, "sender", r.ga)
	requireClean(t, "receiver", r.gb)
}

// TestWindowRendezvousDedupPastOldLog loses message 1's FIN, settles
// 600 rendezvous fillers on another tag, then posts a fresh receive on
// message 1's tag: the retransmitted RTS must be answered with a FIN,
// never pulled into the fresh receive.
func TestWindowRendezvousDedupPastOldLog(t *testing.T) {
	const timeout = 50 * simtime.Millisecond
	r := newSimRig(t, fabric.FaultConfig{}, Config{RdvTimeout: int64(timeout), RdvRetries: 4})
	defer r.close()
	const size = 9 << 10

	first := r.gb.Irecv(1)
	sreq := r.ga.Isend(1, chaosPayload(size))
	for pass := 0; r.receiver.Stats().RdvPulls == 0; pass++ {
		if pass == 1000 {
			t.Fatal("the receiver never started reading message 1")
		}
		r.sender.Tasks().Schedule(0)
		r.receiver.Tasks().Schedule(0)
	}
	r.db.SetFaults(&fabric.FaultConfig{DropProb: 1}) // message 1's FIN dies
	for pass := 0; !first.Test(); pass++ {
		if pass == 1000 {
			t.Fatal("message 1 was not received")
		}
		r.schedule()
		r.f.Advance(simtime.Microsecond)
	}
	r.db.SetFaults(nil)
	if first.Err() != nil || sreq.Test() {
		t.Fatalf("after the lost FIN: recv err %v, send done %v", first.Err(), sreq.Test())
	}

	for i := 0; i < fillers; i++ {
		rreq := r.gb.Irecv(2)
		r.settleEach(t, simtime.Microsecond, r.ga.Isend(2, chaosPayload(size)), rreq)
	}
	if n := r.sender.Stats().RdvRetries; n != 0 {
		t.Fatalf("message 1's RTS retransmitted %d times before the fillers settled", n)
	}
	if _, span := window(r.gb); span > maxWindowSpanAfter {
		t.Errorf("receive window spans %d ids after the fillers, want ≤ %d", span, maxWindowSpanAfter)
	}

	pulls := r.receiver.Stats().RdvPulls
	extra := r.gb.Irecv(1)
	if !r.drive(64*timeout, sreq) || sreq.Err() != nil {
		t.Fatalf("message 1's send did not complete: %v", sreq.Err())
	}
	if r.sender.Stats().RdvRetries == 0 {
		t.Fatal("message 1 completed without a retransmitted RTS; the test proves nothing")
	}
	r.drive(4*timeout, extra)
	if extra.Test() {
		t.Fatal("retransmitted RTS matched a fresh receive: delivered twice")
	}
	if n := r.receiver.Stats().RdvPulls - pulls; n != 0 {
		t.Errorf("the retransmitted RTS was pulled %d more times", n)
	}
	if !extra.Cancel() {
		t.Fatal("Cancel refused the sentinel receive")
	}
	requireClean(t, "sender", r.ga)
	requireClean(t, "receiver", r.gb)
}

// TestFloorClosesEagerHole fails one eager send by cutting the link,
// heals it and settles 1 000 more messages: the id the receiver never
// saw is a hole only the sender's floor can close, and once it has, the
// receiver's base is past the hole and its window small.
func TestFloorClosesEagerHole(t *testing.T) {
	r := newEagerRig(t, fabric.FaultConfig{}, StrategyDefault)
	defer r.close()

	r.da.SetFaults(&fabric.FaultConfig{DropProb: 1})
	lost := r.ga.Isend(1, chaosPayload(64))
	if !r.drive(256*chaosRdvTimeout, lost) {
		t.Fatal("send across a cut link did not fail")
	}
	if !errors.Is(lost.Err(), ErrEagerTimeout) {
		t.Fatalf("send error = %v, want ErrEagerTimeout", lost.Err())
	}
	r.da.SetFaults(nil)
	const hole = 1 // the gate's first msgID

	for i := 0; i < 1000; i++ {
		rreq := r.gb.Irecv(2)
		r.settleEach(t, 0, r.ga.Isend(2, chaosPayload(64)), rreq)
	}
	r.f.Advance(chaosRdvTimeout / 4) // one more sweep
	r.schedule()
	rreq := r.gb.Irecv(2)
	r.settleEach(t, 0, r.ga.Isend(2, chaosPayload(64)), rreq)

	base, span := window(r.gb)
	if base <= hole {
		t.Errorf("receiver base %d, want past the failed id %d", base, hole)
	}
	if span > maxWindowSpanAfter {
		t.Errorf("receive window spans %d ids, want ≤ %d", span, maxWindowSpanAfter)
	}
	requireClean(t, "sender", r.ga)
	requireClean(t, "receiver", r.gb)
}
